package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fpm"
	"repro/internal/permtest"
	"repro/internal/server"
)

// oracle holds the library's answers for the base corpus, computed once
// before set-up with the sequential FP-growth miner (the server mines
// with the parallel one), so every response is checked against an
// independent computation. Row-permuted variants share the answer.
type oracle struct {
	db      *fpm.TxDB
	rest    *dataset.Dataset // attribute columns of the parsed upload
	classes []uint8          // confusion class per row
	res     *core.Result     // the full lattice at the benchmark's support
}

func newOracle(body []byte) (*oracle, error) {
	d, err := parseCSV(body)
	if err != nil {
		return nil, err
	}
	rest, classes, err := labels(d)
	if err != nil {
		return nil, err
	}
	db, err := fpm.NewTxDB(rest, classes, core.NumConfusionClasses)
	if err != nil {
		return nil, fmt.Errorf("building TxDB: %w", err)
	}
	res, err := core.Explore(db, support, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("oracle mine: %w", err)
	}
	return &oracle{db: db, rest: rest, classes: classes, res: res}, nil
}

// parseCSV parses an upload exactly as the server does.
func parseCSV(body []byte) (*dataset.Dataset, error) {
	d, err := dataset.ReadCSV(bytes.NewReader(body), server.CSVOptions())
	if err != nil {
		return nil, fmt.Errorf("parsing CSV: %w", err)
	}
	return d, nil
}

// labels splits a parsed upload into its attribute columns and the
// confusion class of every row ("truth"/"pred" are 0/1 columns).
func labels(d *dataset.Dataset) (*dataset.Dataset, []uint8, error) {
	ti, pi := d.AttrIndex("truth"), d.AttrIndex("pred")
	if ti < 0 || pi < 0 {
		return nil, nil, fmt.Errorf("missing label columns")
	}
	truth := make([]bool, d.NumRows())
	pred := make([]bool, d.NumRows())
	for r := range d.Rows {
		truth[r] = d.Value(r, ti) == "1"
		pred[r] = d.Value(r, pi) == "1"
	}
	classes, err := core.ConfusionClasses(truth, pred)
	if err != nil {
		return nil, nil, fmt.Errorf("confusion classes: %w", err)
	}
	rest, err := d.DropAttrs("truth", "pred")
	if err != nil {
		return nil, nil, fmt.Errorf("dropping label columns: %w", err)
	}
	return rest, classes, nil
}

func names(res *core.Result, is fpm.Itemset) []string { return catNames(res.DB.Catalog, is) }

func catNames(cat *fpm.Catalog, is fpm.Itemset) []string {
	out := make([]string, len(is))
	for i, it := range is {
		out[i] = cat.Name(it)
	}
	return out
}

// pattern is the part of a ranked pattern every check compares: the
// itemset by name and one exact statistic.
type pattern struct {
	Items []string `json:"itemset"`
	Value float64  `json:"value"`
}

func (p pattern) key() string { return strings.Join(p.Items, "\x1f") }

// samePatterns compares two pattern lists element by element. The
// statistics are compared exactly: both sides are float64 values that
// JSON round-trips bit for bit.
func samePatterns(what string, got, want []pattern) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d patterns, want %d", what, len(got), len(want))
	}
	for i := range want {
		// lint:ignore floatcmp exact equality is the oracle: the server and the library compute the same float64 and JSON round-trips it exactly
		if got[i].key() != want[i].key() || got[i].Value != want[i].Value {
			return fmt.Errorf("%s[%d]: got %v %v, want %v %v", what, i, got[i].Items, got[i].Value, want[i].Items, want[i].Value)
		}
	}
	return nil
}

// --- /analyze and /jobs/{id}/result ---

type analyzeWire struct {
	Patterns int `json:"frequent_itemsets"`
	Metrics  []struct {
		Metric string `json:"metric"`
		Top    []struct {
			Itemset    []string `json:"itemset"`
			Divergence float64  `json:"divergence"`
		} `json:"top_divergent"`
	} `json:"metrics"`
}

// analyzeWant is the expected frequent-itemset count and, per metric,
// the top-k itemsets with their divergences.
type analyzeWant struct {
	patterns int
	metrics  []string
	top      [][]pattern
}

func (o *oracle) analyze(metrics []string, k int) (*analyzeWant, error) {
	res := o.res
	w := &analyzeWant{patterns: res.NumPatterns(), metrics: metrics}
	for _, name := range metrics {
		m, err := core.MetricByName(name)
		if err != nil {
			return nil, fmt.Errorf("oracle metric: %w", err)
		}
		var top []pattern
		for _, rk := range res.TopK(m, k, core.ByAbsDivergence) {
			top = append(top, pattern{names(res, rk.Items), rk.Divergence})
		}
		w.top = append(w.top, top)
	}
	return w, nil
}

func (w *analyzeWant) check(body []byte) error {
	var got analyzeWire
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding analysis response: %w", err)
	}
	if got.Patterns != w.patterns {
		return fmt.Errorf("frequent_itemsets = %d, want %d", got.Patterns, w.patterns)
	}
	if len(got.Metrics) != len(w.metrics) {
		return fmt.Errorf("%d metric sections, want %d", len(got.Metrics), len(w.metrics))
	}
	for i, gm := range got.Metrics {
		if gm.Metric != w.metrics[i] {
			return fmt.Errorf("metric section %d is %s, want %s", i, gm.Metric, w.metrics[i])
		}
		top := make([]pattern, len(gm.Top))
		for j, p := range gm.Top {
			top[j] = pattern{p.Itemset, p.Divergence}
		}
		if err := samePatterns(gm.Metric+" top_divergent", top, w.top[i]); err != nil {
			return err
		}
	}
	return nil
}

// --- /explore (budgeted top-K and expand/drill) ---

type exploreWire struct {
	Reason  string `json:"reason"`
	Visited int64  `json:"patterns_visited"`
	Top     []struct {
		Itemset    []string `json:"itemset"`
		Divergence float64  `json:"divergence"`
	} `json:"top"`
}

type exploreWant struct {
	reason  string
	visited int64
	top     []pattern
}

func (o *oracle) explore(metric string, k int, maxPatterns int64) (*exploreWant, error) {
	m, err := core.MetricByName(metric)
	if err != nil {
		return nil, fmt.Errorf("oracle metric: %w", err)
	}
	at, err := core.ExploreTopKAnytime(o.db, support, m, k, core.ByAbsDivergence,
		core.AnytimeOptions{Budget: fpm.AnytimeBudget{MaxPatterns: maxPatterns}})
	if err != nil {
		return nil, fmt.Errorf("oracle anytime top-k: %w", err)
	}
	w := &exploreWant{reason: at.Reason.String(), visited: at.Visited}
	for _, rk := range at.Top {
		w.top = append(w.top, pattern{catNames(o.db.Catalog, rk.Items), rk.Divergence})
	}
	return w, nil
}

// check verifies an explore response and returns its top itemsets, the
// patterns the navigation walk descends into.
func (w *exploreWant) check(body []byte) ([][]string, error) {
	var got exploreWire
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("decoding explore response: %w", err)
	}
	if got.Reason != w.reason || got.Visited != w.visited {
		return nil, fmt.Errorf("explore stopped (%s, %d visited), want (%s, %d)", got.Reason, got.Visited, w.reason, w.visited)
	}
	top := make([]pattern, len(got.Top))
	out := make([][]string, len(got.Top))
	for i, p := range got.Top {
		top[i] = pattern{p.Itemset, p.Divergence}
		out[i] = p.Itemset
	}
	return out, samePatterns("explore top", top, w.top)
}

type expandWire struct {
	Refinements []struct {
		Itemset    []string `json:"itemset"`
		Support    float64  `json:"support"`
		Divergence float64  `json:"divergence"`
	} `json:"refinements"`
}

// expand derives the expected refinements of parent straight from the
// fully mined lattice: every frequent one-item extension (restricted to
// attribute attr when non-empty) on which the metric is defined.
func (o *oracle) expand(metric string, parent []string, attr string) ([]pattern, []pattern, error) {
	res := o.res
	m, err := core.MetricByName(metric)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle metric: %w", err)
	}
	cat := res.DB.Catalog
	p, err := cat.ItemsetByNames(parent...)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle parent: %w", err)
	}
	used := make(map[int]bool)
	for _, a := range cat.Attrs(p) {
		used[a] = true
	}
	kp, kn := m.Counts(res.Total())
	global := float64(kp) / float64(kp+kn)
	rows := float64(res.DB.NumRows())
	var div, sup []pattern
	for it := fpm.Item(0); int(it) < cat.NumItems(); it++ {
		a := cat.Attr(it)
		if used[a] || (attr != "" && cat.AttrName(a) != attr) {
			continue
		}
		q := p.Union(fpm.Itemset{it})
		pat, ok := res.Lookup(q)
		if !ok {
			continue
		}
		kp, kn := m.Counts(pat.Tally)
		if kp+kn == 0 {
			continue
		}
		n := names(res, pat.Items)
		div = append(div, pattern{n, float64(kp)/float64(kp+kn) - global})
		sup = append(sup, pattern{n, float64(pat.Tally.Total()) / rows})
	}
	sortPatterns(div)
	sortPatterns(sup)
	return div, sup, nil
}

func sortPatterns(ps []pattern) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].key() < ps[j].key() })
}

type expandWant struct{ div, sup []pattern }

func (w *expandWant) check(body []byte) ([][]string, error) {
	var got expandWire
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("decoding expand response: %w", err)
	}
	div := make([]pattern, len(got.Refinements))
	sup := make([]pattern, len(got.Refinements))
	children := make([][]string, len(got.Refinements))
	for i, r := range got.Refinements {
		div[i] = pattern{r.Itemset, r.Divergence}
		sup[i] = pattern{r.Itemset, r.Support}
		children[i] = r.Itemset
	}
	sortPatterns(div)
	sortPatterns(sup)
	if err := samePatterns("expand divergence", div, w.div); err != nil {
		return nil, err
	}
	return children, samePatterns("expand support", sup, w.sup)
}

// --- /significance (Westfall-Young) ---

type significanceWire struct {
	Hypotheses int `json:"hypotheses"`
	Rejected   int `json:"rejected"`
	Top        []struct {
		Itemset []string `json:"itemset"`
		AdjP    float64  `json:"adj_p"`
	} `json:"top"`
}

type significanceWant struct {
	hypotheses, rejected int
	top                  []pattern
}

func (o *oracle) significance(metric string, alpha float64, k int, cfg permtest.Config) (*significanceWant, error) {
	res := o.res
	m, err := core.MetricByName(metric)
	if err != nil {
		return nil, fmt.Errorf("oracle metric: %w", err)
	}
	sig, err := res.SignificantPatternsWY(context.Background(), m, alpha, core.ByAbsDivergence, cfg)
	if err != nil {
		return nil, fmt.Errorf("oracle Westfall-Young: %w", err)
	}
	w := &significanceWant{hypotheses: len(res.RankAll(m, core.ByAbsDivergence)), rejected: len(sig)}
	for i, s := range sig {
		if i == k {
			break
		}
		w.top = append(w.top, pattern{names(res, s.Items), s.AdjP})
	}
	return w, nil
}

func (w *significanceWant) check(body []byte) error {
	var got significanceWire
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding significance response: %w", err)
	}
	if got.Hypotheses != w.hypotheses || got.Rejected != w.rejected {
		return fmt.Errorf("significance tested %d / rejected %d, want %d / %d", got.Hypotheses, got.Rejected, w.hypotheses, w.rejected)
	}
	top := make([]pattern, len(got.Top))
	for i, p := range got.Top {
		top[i] = pattern{p.Itemset, p.AdjP}
	}
	return samePatterns("adjusted p-values", top, w.top)
}
