package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestExploreTopKMatchesFullExploration: the streamed top-K must equal
// the exhaustive Result.TopK exactly — itemsets, tallies, every float
// and the order — for every RankOrder and k.
func TestExploreTopKMatchesFullExploration(t *testing.T) {
	db := randomClassifierDB(t, 71, 4, 3, 300)
	full := explore(t, db, 0.02)
	for _, order := range []RankOrder{ByDivergence, ByAbsDivergence, ByNegDivergence} {
		for _, k := range []int{1, 5, 25} {
			want := full.TopK(ErrorRate, k, order)
			got, err := ExploreTopK(db, 0.02, ErrorRate, k, order)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != k {
				t.Fatalf("order=%v k=%d: the full result ranks only %d patterns", order, k, len(want))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("order=%v k=%d: streamed top-K differs\n got %+v\nwant %+v", order, k, got, want)
			}
		}
	}
}

func TestExploreTopKValidation(t *testing.T) {
	db := fixtureDB(t)
	if _, err := ExploreTopK(db, -1, FPR, 5, ByDivergence); err == nil {
		t.Error("bad support accepted")
	}
	if _, err := ExploreTopK(db, 0.05, FPR, 0, ByDivergence); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ExploreTopK(db, 0.05, Metric{Name: "bad"}, 5, ByDivergence); err == nil {
		t.Error("invalid metric accepted")
	}
}

func TestExploreTopKOrderedOutput(t *testing.T) {
	db := randomClassifierDB(t, 72, 3, 2, 200)
	got, err := ExploreTopK(db, 0.05, ErrorRate, 10, ByDivergence)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Divergence > got[i-1].Divergence+1e-12 {
			t.Fatalf("output not sorted at %d", i)
		}
	}
}

// TestLeaderboardIgnoresArrivalOrder offers every frequent pattern in
// several shuffled orders, in batches as a parallel miner would: the
// kept top must equal Result.TopK every time.
func TestLeaderboardIgnoresArrivalOrder(t *testing.T) {
	db := randomClassifierDB(t, 73, 4, 3, 300)
	full := explore(t, db, 0.02)
	rng := rand.New(rand.NewSource(5))
	for _, order := range []RankOrder{ByDivergence, ByAbsDivergence, ByNegDivergence} {
		want := full.TopK(FPR, 10, order)
		for trial := 0; trial < 5; trial++ {
			b, err := NewLeaderboard(FPR, db.TotalTally(), db.NumRows(), 10, order)
			if err != nil {
				t.Fatal(err)
			}
			ps := append([]Pattern(nil), full.Patterns...)
			rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			for _, p := range ps {
				b.Offer(p.Items, p.Tally)
			}
			if got := b.Top(); !reflect.DeepEqual(got, want) {
				t.Fatalf("order=%v trial %d: leaderboard top differs\n got %+v\nwant %+v", order, trial, got, want)
			}
		}
	}
	if _, err := NewLeaderboard(FPR, db.TotalTally(), db.NumRows(), 0, ByDivergence); err == nil {
		t.Error("k=0 accepted")
	}
}
