package core

import (
	"fmt"
	"math"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// ExploreTopK streams the mining pass and keeps only the k most
// divergent patterns for one metric, in O(k) memory instead of
// O(#frequent itemsets). The answer is exact — every frequent pattern is
// still visited (completeness cannot be traded away, Sec. 5) — and
// equal to Result.TopK, but the full result map is never materialized,
// so lattice-wide analyses (Shapley, global divergence, corrective
// items) are unavailable on the output. Use it when only the
// leaderboard is needed on workloads like german at s = 0.01, where the
// full result holds millions of patterns. It is ExploreTopKAnytime with
// no budget and no sampling.
func ExploreTopK(db *fpm.TxDB, minSup float64, m Metric, k int, order RankOrder) ([]Ranked, error) {
	a, err := ExploreTopKAnytime(db, minSup, m, k, order, AnytimeOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, len(a.Top))
	for i := range a.Top {
		out[i] = a.Top[i].Ranked
	}
	return out, nil
}

// Leaderboard keeps the k best patterns offered to it under one metric
// and RankOrder, ranked by lessRankedBy — the order Result.TopK sorts
// by. Because that order is total, the kept set depends only on which
// patterns were offered, never on the order they arrived in: a
// leaderboard fed every frequent pattern holds exactly Result.TopK.
// It is a bounded min-heap, so the weakest kept pattern sits at the
// root and a stronger candidate replaces it in O(log k).
//
// A Leaderboard is not safe for concurrent use.
type Leaderboard struct {
	m          Metric
	k          int
	order      RankOrder
	globalRate float64
	globalPost stats.PosteriorRate
	rows       float64
	heap       []Ranked // heap[0] is the weakest kept pattern
}

// NewLeaderboard returns an empty leaderboard of capacity k. Divergence
// and the Welch t-statistic are measured against total, the tally of
// the whole dataset; supports are counts over rows. It fails when k < 1,
// the metric is invalid, or the metric is undefined on total.
func NewLeaderboard(m Metric, total fpm.Tally, rows, k int, order RankOrder) (*Leaderboard, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k %d < 1", k)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	globalRate := rateOf(total, m)
	if math.IsNaN(globalRate) {
		return nil, fmt.Errorf("core: metric %s undefined on the whole dataset", m.Name)
	}
	return &Leaderboard{
		m:          m,
		k:          k,
		order:      order,
		globalRate: globalRate,
		globalPost: posteriorOf(total, m),
		rows:       float64(rows),
	}, nil
}

// Offer ranks one pattern and keeps it if it is among the k best seen
// so far, reporting whether it was kept. Patterns on which the metric is
// undefined are skipped. items may be borrowed: it is cloned only when
// the pattern is kept.
func (l *Leaderboard) Offer(items fpm.Itemset, t fpm.Tally) bool {
	rate := rateOf(t, l.m)
	if math.IsNaN(rate) {
		return false
	}
	rk := Ranked{
		Items:      items,
		Tally:      t,
		Support:    float64(t.Total()) / l.rows,
		Rate:       rate,
		Divergence: rate - l.globalRate,
	}
	full := len(l.heap) == l.k
	// A full board rejects most candidates on the ranking key alone,
	// before paying for the t-statistic.
	if full && rankKeyOf(&rk, l.order) < rankKeyOf(&l.heap[0], l.order) {
		return false
	}
	rk.T = welchOf(t, l.m, l.globalPost)
	if full && !lessRankedBy(&rk, &l.heap[0], l.order) {
		return false
	}
	rk.Items = items.Clone()
	if full {
		l.heap[0] = rk
		l.down(l.heap, 0)
		return true
	}
	l.heap = append(l.heap, rk)
	for i := len(l.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !lessRankedBy(&l.heap[p], &l.heap[i], l.order) {
			break
		}
		l.heap[p], l.heap[i] = l.heap[i], l.heap[p]
		i = p
	}
	return true
}

// Top returns the kept patterns best first, in a freshly allocated
// slice that is safe to retain.
func (l *Leaderboard) Top() []Ranked {
	out := append([]Ranked(nil), l.heap...)
	// Heapsort: move the weakest to the end until the heap is empty.
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		l.down(out[:n], 0)
	}
	return out
}

// down restores the heap order below i: the weaker child rises until
// every parent ranks below both of its children.
func (l *Leaderboard) down(h []Ranked, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && lessRankedBy(&h[c], &h[c+1], l.order) {
			c++
		}
		if !lessRankedBy(&h[i], &h[c], l.order) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func rateOf(t fpm.Tally, m Metric) float64 {
	kp, kn := m.Counts(t)
	if kp+kn == 0 {
		return math.NaN()
	}
	return float64(kp) / float64(kp+kn)
}

func posteriorOf(t fpm.Tally, m Metric) stats.PosteriorRate {
	kp, kn := m.Counts(t)
	return stats.NewPosteriorRate(float64(kp), float64(kn))
}

func welchOf(t fpm.Tally, m Metric, global stats.PosteriorRate) float64 {
	return stats.WelchTPosterior(posteriorOf(t, m), global)
}
