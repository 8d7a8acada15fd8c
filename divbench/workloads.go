package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fpm"
	"repro/internal/jobs"
	"repro/internal/lattice"
	"repro/internal/permtest"
	"repro/internal/registry"
	"repro/internal/server"
)

// runner is one workload bound to its generated inputs. The harness
// calls stage and setup once per set-up (only setup is timed as
// setup_s), then next and op for every op (only the spans inside op that
// wait on the program are timed).
type runner interface {
	// stage prepares untimed per-set-up state (e.g. a WAL directory).
	stage() error
	// setup builds a fresh server and drives its caches to steady state.
	setup(traced bool) error
	// setupTime is the last set-up's program time: server construction
	// (with WAL recovery) plus its requests, without input generation.
	setupTime() time.Duration
	// next generates op i's inputs.
	next(i int) error
	// op runs op i through c; a non-nil error is a failed op.
	op(i int, c *client) error
	// current is the server set-up last built.
	current() *env
	close() error
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// window is the op count of one measurement window, a whole number
	// of input rotations. Runs stop only at a window boundary, so every
	// run sees the same mix of op kinds.
	window int
	// traceOps is the fixed op count of each traced pass, a whole number
	// of rotations so exact counts repeat.
	traceOps int
	// heapAt is the op count after which live_heap_mb is read.
	heapAt int
	build  func(seed int64, workdir string) (runner, error)
}

var workloads = []workload{
	{name: "analyze-cold", window: 50, traceOps: 120, heapAt: 100, build: newCold},
	{name: "analyze-warm", window: warmPool * 9, traceOps: warmPool * 9, heapAt: warmPool * 9, build: newWarm},
	{name: "explore-session", window: sessionCombos, traceOps: sessionCombos, heapAt: sessionCombos, build: newSession},
	{name: "durable-stream", window: 20, traceOps: 30, heapAt: 60, build: newDurable},
}

const (
	support     = 0.05
	analyzeTopK = 10
	// fillUploads is how many distinct uploads set-up analyzes to push
	// both the registry (~85 uploads) and the result cache (128 entries)
	// past capacity, into their eviction steady state. Every further
	// upload evicts one entry from each.
	fillUploads = 136
)

var analyzeMetrics = []string{"FPR", "FNR"}

// analyzeTarget is the /analyze (or /jobs) query for the given render
// parameters; alpha 0 omits the significance section.
func analyzeTarget(path string, topK int, alpha float64) string {
	q := url.Values{}
	q.Set("truth", "truth")
	q.Set("pred", "pred")
	q.Set("support", strconv.FormatFloat(support, 'g', -1, 64))
	q.Set("metric", strings.Join(analyzeMetrics, ","))
	q.Set("topk", strconv.Itoa(topK))
	if alpha > 0 {
		q.Set("alpha", strconv.FormatFloat(alpha, 'g', -1, 64))
	}
	return path + "?" + q.Encode()
}

// base carries what every runner shares.
type base struct {
	seed    int64
	workdir string
	corpus  *corpus
	env     *env
	sc      *client // the set-up client; its stopwatch times set-up
}

func (b *base) setupTime() time.Duration { return b.sc.sw.wall }

func (b *base) current() *env { return b.env }

// stage closes the previous server, outside the set-up clock.
func (b *base) stage() error { return b.close() }

func (b *base) close() error {
	if b.env == nil {
		return nil
	}
	err := b.env.close()
	b.env = nil
	return err
}

// fresh replaces the current server with a new one.
func (b *base) fresh(traced bool, storeDir string) error {
	if err := b.close(); err != nil {
		return err
	}
	t0 := time.Now()
	e, err := newEnv(traced, storeDir)
	if err != nil {
		return err
	}
	b.env = e
	b.sc = &client{h: e.h}
	b.sc.sw.wall = time.Since(t0)
	return nil
}

// analyzeAll posts n uploads to /analyze with default render params;
// upload i is generated (untimed) just before its request.
func (b *base) analyzeAll(n int, upload func(i int) []byte) error {
	for i := 0; i < n; i++ {
		body := upload(i)
		if err := expect(b.sc.call("POST", analyzeTarget("/analyze", analyzeTopK, 0), body, false), "fill analyze "+strconv.Itoa(i), 200); err != nil {
			return err
		}
	}
	return nil
}

// probeAnalysis re-runs, outside the request, the public functions a
// cold analysis of body passes through, timing each as a probe span:
// registry hash and register, CSV parse, TxDB build, and
// core.ExploreContext split into mining (a timing fpm.Miner) and the
// statistics around it. It returns the mined result.
func probeAnalysis(tr *tracer, body []byte) (*core.Result, error) {
	tr.span("registry.hash_ms", func() { registry.HashBytes(body) })
	var err error
	tr.childSpan("registry.register_ms", func() { _, _, err = registry.New(0).Register(body, server.CSVOptions()) })
	if err != nil {
		return nil, fmt.Errorf("probe register: %w", err)
	}
	var d *dataset.Dataset
	tr.span("dataset.parse_ms", func() { d, err = parseCSV(body) })
	if err != nil {
		return nil, err
	}
	rest, classes, err := labels(d)
	if err != nil {
		return nil, err
	}
	var db *fpm.TxDB
	tr.span("fpm.txdb_ms", func() { db, err = fpm.NewTxDB(rest, classes, core.NumConfusionClasses) })
	if err != nil {
		return nil, fmt.Errorf("probe TxDB: %w", err)
	}
	tm := &timingMiner{inner: fpm.Parallel{}}
	var res *core.Result
	total := tr.span("core.explore_ms", func() {
		res, err = core.ExploreContext(context.Background(), db, support, core.Options{Miner: tm})
	})
	if err != nil {
		return nil, fmt.Errorf("probe explore: %w", err)
	}
	tr.add("fpm.mine_ms", ms(tm.elapsed))
	tr.add("core.stats_ms", ms(total-tm.elapsed))
	tr.count("fpm.patterns", int64(tm.patterns))
	return res, nil
}

// probeRender times the derived analytics the JSON renderer computes
// per metric: global divergence, the corrective scan, and the top-k with
// p-values (plus the BH significance list when alpha > 0).
func probeRender(tr *tracer, res *core.Result, topK int, alpha float64) error {
	for _, name := range analyzeMetrics {
		m, err := core.MetricByName(name)
		if err != nil {
			return fmt.Errorf("probe metric: %w", err)
		}
		tr.childSpan("core.global_divergence_ms", func() { res.CompareItemDivergence(m) })
		tr.childSpan("core.corrective_ms", func() { res.TopCorrective(m, 5, 2.0) })
		tr.childSpan("core.topk_ms", func() {
			for _, rk := range res.TopK(m, topK, core.ByAbsDivergence) {
				res.PValue(rk.Tally, m)
			}
			if alpha > 0 {
				res.SignificantPatterns(m, alpha, core.ByAbsDivergence)
			}
		})
	}
	return nil
}

// ---------------------------------------------------------------------
// analyze-cold: every op uploads a never-seen row permutation.

type coldRun struct {
	base
	want *analyzeWant
	body []byte
}

func newCold(seed int64, workdir string) (runner, error) {
	c, err := newCorpus(seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(c.base())
	if err != nil {
		return nil, err
	}
	want, err := o.analyze(analyzeMetrics, analyzeTopK)
	if err != nil {
		return nil, err
	}
	return &coldRun{base: base{seed: seed, workdir: workdir, corpus: c}, want: want}, nil
}

func (r *coldRun) setup(traced bool) error {
	if err := r.fresh(traced, ""); err != nil {
		return err
	}
	return r.analyzeAll(fillUploads, r.fillUpload)
}

// fillUpload is set-up upload i; ops use uploads from fillUploads on.
func (b *base) fillUpload(i int) []byte { return b.corpus.variant(b.seed, i) }

func (r *coldRun) next(i int) error {
	r.body = r.corpus.variant(r.seed, fillUploads+i)
	return nil
}

func (r *coldRun) op(i int, c *client) error {
	var a0 int64
	if c.tr != nil {
		a0 = r.env.timer.nanos.Load()
	}
	w := c.call("POST", analyzeTarget("/analyze", analyzeTopK, 0), r.body, false)
	if c.tr != nil {
		// The analysis runs inside the request: a child span.
		c.tr.add("server.children_ms", ms(time.Duration(r.env.timer.nanos.Load()-a0)))
	}
	if err := expect(w, "analyze", 200); err != nil {
		return err
	}
	if err := r.want.check(w.body.Bytes()); err != nil {
		return err
	}
	if c.tr == nil {
		return nil
	}
	res, err := probeAnalysis(c.tr, r.body)
	if err != nil {
		return err
	}
	return probeRender(c.tr, res, analyzeTopK, 0)
}

// ---------------------------------------------------------------------
// analyze-warm: re-posts a pool mined during set-up, rotating only
// render parameters the result cache key excludes.

const warmPool = 32

var (
	warmTopK  = []int{5, 10, 20}
	warmAlpha = []float64{0, 0.05, 0.1}
)

type warmRun struct {
	base
	pool [][]byte
	res  *core.Result
	want map[int]*analyzeWant // by topk
}

func newWarm(seed int64, workdir string) (runner, error) {
	c, err := newCorpus(seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(c.base())
	if err != nil {
		return nil, err
	}
	r := &warmRun{base: base{seed: seed, workdir: workdir, corpus: c}, res: o.res, want: make(map[int]*analyzeWant)}
	for _, k := range warmTopK {
		if r.want[k], err = o.analyze(analyzeMetrics, k); err != nil {
			return nil, err
		}
	}
	for i := 0; i < warmPool; i++ {
		r.pool = append(r.pool, c.variant(seed, i))
	}
	return r, nil
}

func (r *warmRun) setup(traced bool) error {
	if err := r.fresh(traced, ""); err != nil {
		return err
	}
	return r.analyzeAll(len(r.pool), func(i int) []byte { return r.pool[i] })
}

func (r *warmRun) next(int) error { return nil }

// params maps op i to (dataset, topk, alpha); the rotation covers every
// combination every warmPool*9 ops.
func (r *warmRun) params(i int) (int, int, float64) {
	return i % warmPool, warmTopK[(i/warmPool)%len(warmTopK)], warmAlpha[(i/(warmPool*len(warmTopK)))%len(warmAlpha)]
}

func (r *warmRun) op(i int, c *client) error {
	d, k, alpha := r.params(i)
	body := r.pool[d]
	w := c.call("POST", analyzeTarget("/analyze", k, alpha), body, false)
	if err := expect(w, "analyze", 200); err != nil {
		return err
	}
	if err := r.want[k].check(w.body.Bytes()); err != nil {
		return err
	}
	if c.tr == nil {
		return nil
	}
	c.tr.childSpan("registry.hash_ms", func() { registry.HashBytes(body) })
	return probeRender(c.tr, r.res, k, alpha)
}

// ---------------------------------------------------------------------
// explore-session: budgeted top-K, a fixed expand/drill walk, then a
// seeded Westfall-Young significance query.

const (
	sessionDatasets = 40                  // > exploreSessions, so every op rebuilds its session
	sessionCombos   = sessionDatasets * 2 // x metrics: > exploreCache and sigCache
	maxPatterns     = 64
	permutations    = 50
	sigAlpha        = 0.05
	sessionTopK     = 10
)

var sessionMetrics = []string{"FPR", "FNR"}

// walkKey identifies one navigation step's expected answer.
type walkKey struct {
	metric, parent, attr string
}

type sessionRun struct {
	base
	bodies [][]byte
	hashes []string
	o      *oracle
	sigCfg permtest.Config
	xwant  map[string]*exploreWant      // by metric
	swant  map[string]*significanceWant // by metric
	ewant  map[walkKey]*expandWant
	attrs  []string
}

func newSession(seed int64, workdir string) (runner, error) {
	c, err := newCorpus(seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(c.base())
	if err != nil {
		return nil, err
	}
	r := &sessionRun{
		base: base{seed: seed, workdir: workdir, corpus: c}, o: o,
		sigCfg: permtest.Config{Permutations: permutations, Seed: mix(seed, 7)},
		xwant:  make(map[string]*exploreWant), swant: make(map[string]*significanceWant),
		ewant: make(map[walkKey]*expandWant),
	}
	for a := 0; a < o.db.Catalog.NumAttrs(); a++ {
		r.attrs = append(r.attrs, o.db.Catalog.AttrName(a))
	}
	for _, m := range sessionMetrics {
		if r.xwant[m], err = o.explore(m, sessionTopK, maxPatterns); err != nil {
			return nil, err
		}
		if r.swant[m], err = o.significance(m, sigAlpha, sessionTopK, r.sigCfg); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sessionDatasets; i++ {
		r.bodies = append(r.bodies, c.padded(i))
	}
	return r, nil
}

// params maps op i to (dataset, metric): sessionCombos combinations,
// more than the explore and significance caches hold.
func (r *sessionRun) params(i int) (int, string) {
	return i % sessionDatasets, sessionMetrics[(i/sessionDatasets)%len(sessionMetrics)]
}

func (r *sessionRun) setup(traced bool) error {
	if err := r.fresh(traced, ""); err != nil {
		return err
	}
	c := r.sc
	r.hashes = r.hashes[:0]
	for i, body := range r.bodies {
		w := c.call("POST", "/datasets", body, false)
		if err := expect(w, "register "+strconv.Itoa(i), 200); err != nil {
			return err
		}
		h, err := jsonField(w.body.Bytes(), "hash")
		if err != nil {
			return err
		}
		r.hashes = append(r.hashes, h)
	}
	// Mine every (dataset, metric) lattice into the result cache
	// through the analytic significance path, which also fills the
	// significance cache past capacity.
	for i := 0; i < sessionCombos; i++ {
		d, metric := r.params(i)
		if err := expect(c.call("POST", "/significance", r.sigBody(d, metric, "bh"), false), "warm significance", 200); err != nil {
			return err
		}
	}
	// Open a navigation session per dataset: more than the session LRU
	// holds, so it is at capacity and evicting.
	for d := range r.bodies {
		if err := expect(c.call("POST", "/explore", r.expandBody(d, "FPR", nil, ""), false), "warm session", 200); err != nil {
			return err
		}
	}
	return nil
}

func (r *sessionRun) next(int) error { return nil }

func (r *sessionRun) sigBody(d int, metric, method string) []byte {
	q := map[string]any{
		"dataset": r.hashes[d], "metric": metric, "support": support, "method": method,
		"alpha": sigAlpha, "topk": sessionTopK,
	}
	if method == "wy" {
		q["permutations"], q["seed"] = r.sigCfg.Permutations, r.sigCfg.Seed
	}
	b, _ := json.Marshal(q) // a map of plain values always marshals
	return b
}

func (r *sessionRun) expandBody(d int, metric string, parent []string, attr string) []byte {
	if parent == nil {
		parent = []string{}
	}
	b, _ := json.Marshal(map[string]any{
		"dataset": r.hashes[d], "metric": metric, "support": support,
		"expand": map[string]any{"pattern": parent, "attr": attr},
	}) // a map of plain values always marshals
	return b
}

// step is one navigation request of the walk.
type step struct {
	parent []string
	attr   string
	warm   bool // a revisit: the pattern's cover is already cached
}

func (r *sessionRun) op(i int, c *client) error {
	d, metric := r.params(i)
	xb, _ := json.Marshal(map[string]any{
		"dataset": r.hashes[d], "metric": metric, "support": support,
		"topk": sessionTopK, "max_patterns": maxPatterns,
	}) // a map of plain values always marshals
	w := c.call("POST", "/explore", xb, false)
	if err := expect(w, "explore", 200); err != nil {
		return err
	}
	top, err := r.xwant[metric].check(w.body.Bytes())
	if err != nil {
		return err
	}
	if len(top) < 2 {
		return fmt.Errorf("explore returned %d patterns, the walk needs 2", len(top))
	}
	if _, err := r.navigate(d, metric, c, step{}); err != nil {
		return err
	}
	children, err := r.navigate(d, metric, c, step{parent: top[0]})
	if err != nil {
		return err
	}
	for _, s := range r.walk(top, children) {
		if _, err := r.navigate(d, metric, c, s); err != nil {
			return err
		}
	}
	w = c.call("POST", "/significance", r.sigBody(d, metric, "wy"), false)
	if err := expect(w, "significance", 200); err != nil {
		return err
	}
	if err := r.swant[metric].check(w.body.Bytes()); err != nil {
		return err
	}
	if c.tr != nil {
		return r.probe(c.tr, metric, top, children)
	}
	return nil
}

// walk is the navigation after expanding the root and the best pattern
// top[0]: descend into top[0]'s first child, drill the runner-up along
// its first free attribute, then revisit top[0] and the child.
func (r *sessionRun) walk(top, children [][]string) []step {
	steps := []step{{parent: top[1], attr: r.freeAttr(top[1])}, {parent: top[0], warm: true}}
	if len(children) > 0 {
		child := firstByName(children)
		steps = append([]step{{parent: child}}, steps...)
		steps = append(steps, step{parent: child, warm: true})
	}
	return steps
}

// navigate runs one expand/drill step and checks it against the mined
// lattice; it returns the refinements.
func (r *sessionRun) navigate(d int, metric string, c *client, s step) ([][]string, error) {
	w := c.call("POST", "/explore", r.expandBody(d, metric, s.parent, s.attr), false)
	if err := expect(w, "expand", 200); err != nil {
		return nil, err
	}
	key := walkKey{metric, strings.Join(s.parent, "\x1f"), s.attr}
	want := r.ewant[key]
	if want == nil {
		div, sup, err := r.o.expand(metric, s.parent, s.attr)
		if err != nil {
			return nil, err
		}
		want = &expandWant{div, sup}
		r.ewant[key] = want
	}
	return want.check(w.body.Bytes())
}

// freeAttr is the first attribute (catalog order) pattern does not use.
func (r *sessionRun) freeAttr(pattern []string) string {
	used := make(map[string]bool)
	for _, it := range pattern {
		a, _, _ := strings.Cut(it, "=")
		used[a] = true
	}
	for _, a := range r.attrs {
		if !used[a] {
			return a
		}
	}
	return ""
}

func firstByName(ps [][]string) []string {
	best := ps[0]
	for _, p := range ps[1:] {
		if strings.Join(p, "\x1f") < strings.Join(best, "\x1f") {
			best = p
		}
	}
	return best
}

// probe replays the op's layer calls on the oracle's copy of the data:
// the anytime top-K, the navigation walk on a fresh lattice explorer
// (first visits cold, revisits warm), and the Westfall-Young pass.
func (r *sessionRun) probe(tr *tracer, metric string, top, children [][]string) error {
	m, err := core.MetricByName(metric)
	if err != nil {
		return fmt.Errorf("probe metric: %w", err)
	}
	db := r.o.db
	var at *core.AnytimeTopK
	tr.childSpan("core.anytime_topk_ms", func() {
		at, err = core.ExploreTopKAnytime(db, support, m, sessionTopK, core.ByAbsDivergence,
			core.AnytimeOptions{Budget: fpm.AnytimeBudget{MaxPatterns: maxPatterns}})
	})
	if err != nil {
		return fmt.Errorf("probe anytime top-k: %w", err)
	}
	tr.count("fpm.patterns", at.Visited)
	tr.childSpan("fpm.txdb_ms", func() { _, err = fpm.NewTxDB(r.o.rest, r.o.classes, core.NumConfusionClasses) })
	if err != nil {
		return fmt.Errorf("probe TxDB: %w", err)
	}
	nav := lattice.NewExplorer(db, 0)
	minCount := fpm.MinCount(db.NumRows(), support)
	steps := append([]step{{}, {parent: top[0]}}, r.walk(top, children)...)
	for _, s := range steps {
		is, err := db.Catalog.ItemsetByNames(s.parent...)
		if err != nil {
			return fmt.Errorf("probe pattern: %w", err)
		}
		name := "lattice.expand_cold_ms"
		if s.warm {
			name = "lattice.expand_warm_ms"
		}
		tr.childSpan(name, func() {
			if s.attr == "" {
				_, err = nav.Expand(is, minCount)
				return
			}
			_, err = nav.Drill(is, slices.Index(r.attrs, s.attr), minCount)
		})
		if err != nil {
			return fmt.Errorf("probe navigation: %w", err)
		}
	}
	st := nav.Stats()
	tr.count("lattice.hits", st.Hits)
	tr.count("lattice.misses", st.Misses)
	var sigErr error
	d := tr.childSpan("permtest.significance_ms", func() {
		_, sigErr = r.o.res.SignificantPatternsWY(context.Background(), m, sigAlpha, core.ByAbsDivergence, r.sigCfg)
	})
	if sigErr != nil {
		return fmt.Errorf("probe significance: %w", sigErr)
	}
	tr.add("permtest.pass_us", float64(d.Microseconds())/float64(r.sigCfg.Permutations))
	return nil
}

// ---------------------------------------------------------------------
// durable-stream: monitor ingest plus one asynchronous, WAL-logged job.

const (
	walJobs       = 500 // finished jobs in the pre-written WAL set-up recovers
	ingestBatches = 4
	batchEvents   = 50
)

type durableRun struct {
	base
	want    *analyzeWant
	wal     []byte
	monSpec []byte
	monID   string
	sent    int64

	dir     string
	body    []byte
	batches [][]byte
}

func newDurable(seed int64, workdir string) (runner, error) {
	c, err := newCorpus(seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(c.base())
	if err != nil {
		return nil, err
	}
	want, err := o.analyze(analyzeMetrics, analyzeTopK)
	if err != nil {
		return nil, err
	}
	wal, err := walBytes(seed, walJobs, o.res, analyzeMetrics)
	if err != nil {
		return nil, err
	}
	spec, err := monitorSpecJSON()
	if err != nil {
		return nil, err
	}
	return &durableRun{base: base{seed: seed, workdir: workdir, corpus: c}, want: want, wal: wal, monSpec: spec}, nil
}

// stage closes the previous server and writes the pre-built WAL into a
// fresh store directory.
func (r *durableRun) stage() error {
	if err := r.base.stage(); err != nil {
		return err
	}
	dir, err := tempDir(r.workdir, "wal-")
	if err != nil {
		return err
	}
	r.dir = dir
	return os.WriteFile(filepath.Join(dir, jobs.WALName), r.wal, 0o644)
}

func (r *durableRun) setup(traced bool) error {
	if err := r.fresh(traced, r.dir); err != nil {
		return err
	}
	w := r.sc.call("POST", "/monitors", r.monSpec, false)
	if err := expect(w, "create monitor", 201); err != nil {
		return err
	}
	id, err := jsonField(w.body.Bytes(), "id")
	if err != nil {
		return err
	}
	r.monID, r.sent = id, 0
	return r.analyzeAll(fillUploads, r.fillUpload)
}

func (r *durableRun) next(i int) error {
	r.body = r.corpus.variant(r.seed, 100_000+i)
	var err error
	r.batches, err = driftBatches(r.seed, i, ingestBatches, batchEvents)
	return err
}

func (r *durableRun) op(i int, c *client) error {
	if err := r.ingest(c); err != nil {
		return err
	}
	w := c.call("POST", analyzeTarget("/jobs", analyzeTopK, 0), r.body, false)
	if err := expect(w, "submit job", 202); err != nil {
		return err
	}
	id, err := jsonField(w.body.Bytes(), "id")
	if err != nil {
		return err
	}
	w = c.call("GET", "/jobs/"+id+"/events", nil, true)
	if err := expect(w, "job events", 200); err != nil {
		return err
	}
	if err := terminalDone(w.body.Bytes()); err != nil {
		return err
	}
	w = c.call("GET", "/jobs/"+id+"/result", nil, false)
	if err := expect(w, "job result", 200); err != nil {
		return err
	}
	if err := r.want.check(w.body.Bytes()); err != nil {
		return err
	}
	if c.tr == nil {
		return nil
	}
	job, ok := r.env.eng.Get(id)
	if !ok {
		return fmt.Errorf("job %s vanished", id)
	}
	st := job.Snapshot()
	c.tr.add("jobs.queue_wait_ms", ms(st.Started.Sub(st.Created)))
	c.tr.add("jobs.run_ms", ms(st.Finished.Sub(st.Started)))
	res, err := probeAnalysis(c.tr, r.body)
	if err != nil {
		return err
	}
	return probeRender(c.tr, res, analyzeTopK, 0)
}

// ingest posts the op's event batches (retrying a 429 after yielding to
// the monitor worker) and waits until the monitor has folded them all.
func (r *durableRun) ingest(c *client) error {
	mon, ok := r.env.srv.Monitors().Get(r.monID)
	if !ok {
		return fmt.Errorf("monitor %s vanished", r.monID)
	}
	var ingest time.Duration
	for _, b := range r.batches {
		for {
			t0 := time.Now()
			w := c.call("POST", "/monitors/"+r.monID+"/events", b, false)
			ingest += time.Since(t0)
			c.tr.count("monitor.batches", 1)
			if w.status() == 429 {
				c.tr.count("monitor.backpressure", 1)
				c.retries++
				runtime.Gosched()
				continue
			}
			if err := expect(w, "ingest", 202); err != nil {
				return err
			}
			var res struct {
				Accepted int `json:"accepted"`
				Invalid  int `json:"invalid"`
			}
			if err := json.Unmarshal(w.body.Bytes(), &res); err != nil {
				return fmt.Errorf("decoding ingest response: %w", err)
			}
			if res.Accepted != batchEvents || res.Invalid != 0 {
				return fmt.Errorf("ingest accepted %d / invalid %d, want %d / 0", res.Accepted, res.Invalid, batchEvents)
			}
			r.sent += int64(res.Accepted)
			break
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	var late bool
	wait := c.sw.time(func() {
		for mon.Counters().Events < r.sent {
			if time.Now().After(deadline) {
				late = true
				return
			}
			runtime.Gosched()
		}
	})
	if late {
		return fmt.Errorf("monitor folded %d of %d events within 30s", mon.Counters().Events, r.sent)
	}
	cnt := mon.Counters()
	if cnt.Events != r.sent || cnt.EventsInvalid != 0 {
		return fmt.Errorf("monitor counted %d events (%d invalid), want %d (0)", cnt.Events, cnt.EventsInvalid, r.sent)
	}
	c.tr.add("monitor.ingest_ms", ms(ingest))
	c.tr.add("monitor.fold_wait_ms", ms(wait))
	c.tr.count("monitor.events", int64(len(r.batches)*batchEvents))
	return nil
}

// terminalDone checks that an SSE job stream ended with the done state.
func terminalDone(body []byte) error {
	evs := parseSSE(body)
	for j := len(evs) - 1; j >= 0; j-- {
		if evs[j].name != "state" {
			continue
		}
		state, err := jsonField(evs[j].data, "state")
		if err != nil {
			return err
		}
		if state != "done" {
			return fmt.Errorf("job ended %s", state)
		}
		return nil
	}
	return fmt.Errorf("job event stream has no state event")
}
