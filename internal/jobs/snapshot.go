package jobs

import (
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fpm"
)

// PartialPattern is one itemset in a snapshot or result summary, fully
// rendered (item names, not dense ids) so it stays meaningful after a
// restart, when the dataset may no longer be registered.
type PartialPattern struct {
	Items      []string `json:"itemset"`
	Support    float64  `json:"support"`
	Rate       float64  `json:"rate"`
	Divergence float64  `json:"divergence"`
}

// Snapshot is one partial-result snapshot of a running mine: the top-K
// itemsets by |divergence| among everything mined so far, plus counters.
// Seq increases with every update, so pollers of /jobs/{id}/partial can
// detect growth, and Done/Total/Patterns are monotone over a job's life.
type Snapshot struct {
	Seq      int64            `json:"seq"`
	Done     int              `json:"done"`
	Total    int              `json:"total"`
	Patterns int64            `json:"patterns"`
	Metric   string           `json:"metric,omitempty"`
	Top      []PartialPattern `json:"top"`
	Updated  time.Time        `json:"updated"`
	// Reason is set only by the final snapshot of an anytime exploration:
	// "exhausted", "deadline" or "budget". Empty on mid-stream snapshots
	// and on full-analysis jobs.
	Reason string `json:"reason,omitempty"`
}

// MetricSummary is the per-metric slice of a durable result summary.
type MetricSummary struct {
	Metric      string           `json:"metric"`
	OverallRate float64          `json:"overall_rate"`
	Top         []PartialPattern `json:"top_divergent"`
}

// ResultSummary is the durable, self-contained digest of a completed
// analysis that the store persists with the done record. Unlike the full
// *core.Result it does not reference the transaction database, so it
// survives a restart (and registry eviction) and is what the server
// serves for recovered jobs.
type ResultSummary struct {
	Rows     int             `json:"rows"`
	Attrs    int             `json:"attributes"`
	Patterns int             `json:"frequent_itemsets"`
	Support  float64         `json:"min_support"`
	Miner    string          `json:"miner"`
	Metrics  []MetricSummary `json:"metrics"`
}

// summarize digests a mined result into its durable summary: the top-K
// patterns by |divergence| for each requested metric. Metrics undefined
// on the whole dataset (all-⊥) are skipped — their divergence has no
// reference point, and NaN cannot survive JSON encoding anyway.
func summarize(res *core.Result, spec Spec) *ResultSummary {
	sum := &ResultSummary{
		Rows:     res.DB.NumRows(),
		Attrs:    res.DB.Catalog.NumAttrs(),
		Patterns: res.NumPatterns(),
		Support:  res.MinSup,
		Miner:    res.Miner,
	}
	for _, name := range spec.Metrics {
		m, err := core.MetricByName(name)
		if err != nil {
			continue // validated at submission; stale names are skipped
		}
		rate := res.GlobalRate(m)
		if math.IsNaN(rate) {
			continue
		}
		sum.Metrics = append(sum.Metrics, MetricSummary{
			Metric:      m.Name,
			OverallRate: rate,
			Top:         partialPatterns(res.DB.Catalog, res.TopK(m, summaryTopK(spec), core.ByAbsDivergence)),
		})
	}
	return sum
}

// summaryTopK is the leaderboard length of summaries and partial
// snapshots: the spec's top-k, 10 by default.
func summaryTopK(spec Spec) int {
	if spec.TopK <= 0 {
		return 10
	}
	return spec.TopK
}

// partialPatterns renders ranked patterns, keeping their order.
func partialPatterns(cat *fpm.Catalog, top []core.Ranked) []PartialPattern {
	out := make([]PartialPattern, len(top))
	for i := range top {
		out[i] = partialOf(cat, &top[i])
	}
	return out
}

// partialOf renders one ranked pattern.
func partialOf(cat *fpm.Catalog, rk *core.Ranked) PartialPattern {
	return PartialPattern{
		Items:      itemNameList(cat, rk.Items),
		Support:    rk.Support,
		Rate:       rk.Rate,
		Divergence: rk.Divergence,
	}
}

func itemNameList(cat *fpm.Catalog, is fpm.Itemset) []string {
	out := make([]string, len(is))
	for i, it := range is {
		out[i] = cat.Name(it)
	}
	return out
}

// Tracker carries a running job's live telemetry out of the analysis
// function: progress counters and partial-result snapshots. The engine
// builds one per job run; a nil Tracker (the synchronous /analyze path,
// or tests) turns every method into a no-op. Methods are safe for
// concurrent use — the parallel miner calls them from several workers.
type Tracker struct {
	job     *Job
	every   time.Duration   // persistence cadence; <= 0 persists every update
	persist func(*Snapshot) // write-through to the store; may be nil

	mu          sync.Mutex
	seq         int64
	lastPersist time.Time
}

// Progress records completion counts on the job — mining subproblems or
// permutations. It has the signature fpm.Parallel.Progress and
// permtest.Config.Progress expect. Parallel workers may report out of
// order, so the done count only ever moves forward.
func (t *Tracker) Progress(done, total int) {
	if t == nil || t.job == nil {
		return
	}
	p := &t.job.progressDone
	for cur := p.Load(); int64(done) > cur && !p.CompareAndSwap(cur, int64(done)); cur = p.Load() {
	}
	t.job.progressTotal.Store(int64(total))
}

// Partial publishes a new partial-result snapshot: it is stamped with
// the next sequence number, made visible to pollers immediately, and
// written through to the store at the configured cadence (terminal
// persistence is the engine's job, so a rate-limited snapshot lost in a
// crash costs only staleness, never correctness). Concurrent callers
// stamp in one order but may publish in another, so a snapshot never
// replaces one with a higher sequence number, and recovery keeps the
// highest one logged: pollers and restarts only see the job move
// forward.
func (t *Tracker) Partial(snap Snapshot) {
	if t == nil || t.job == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	snap.Seq = t.seq
	snap.Updated = time.Now()
	due := t.persist != nil &&
		(t.every <= 0 || t.lastPersist.IsZero() || time.Since(t.lastPersist) >= t.every)
	if due {
		t.lastPersist = snap.Updated
	}
	t.mu.Unlock()

	p := &t.job.partial
	for cur := p.Load(); (cur == nil || cur.Seq < snap.Seq) && !p.CompareAndSwap(cur, &snap); cur = p.Load() {
	}
	if due {
		t.persist(&snap)
	}
}

// partialAccum folds per-subproblem pattern batches into a running
// top-K-by-|divergence| leaderboard for one metric. It is the bridge
// between fpm.Parallel.Emit and Tracker.Partial. The leaderboard ranks
// by the same total order as the result summary, so once every batch
// is folded its top equals summarize's, whatever order workers finished
// in. It is not safe for concurrent use: RunAnalysis serializes add
// with publication.
type partialAccum struct {
	metric   string
	board    *core.Leaderboard // nil when the metric is unknown or all-⊥ on the whole dataset
	cat      *fpm.Catalog
	done     int
	patterns int64
}

// newPartialAccum prepares an accumulator for the spec's first metric
// (the leaderboard metric for partial snapshots; the full result covers
// all metrics at completion).
func newPartialAccum(db *fpm.TxDB, spec Spec) *partialAccum {
	acc := &partialAccum{cat: db.Catalog}
	if len(spec.Metrics) > 0 {
		if m, err := core.MetricByName(spec.Metrics[0]); err == nil {
			acc.metric = m.Name
			if b, err := core.NewLeaderboard(m, db.TotalTally(), db.NumRows(), summaryTopK(spec), core.ByAbsDivergence); err == nil {
				acc.board = b
			}
		}
	}
	return acc
}

// add folds one emitted batch and returns the snapshot reflecting it.
func (a *partialAccum) add(batch []fpm.FrequentPattern, total int) Snapshot {
	a.done++
	a.patterns += int64(len(batch))
	var top []core.Ranked
	if a.board != nil {
		for _, p := range batch {
			a.board.Offer(p.Items, p.Tally)
		}
		top = a.board.Top()
	}
	return Snapshot{
		Done:     a.done,
		Total:    total,
		Patterns: a.patterns,
		Metric:   a.metric,
		Top:      partialPatterns(a.cat, top),
	}
}
