package registry

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// The property suite drives seeded random Put/Get/Remove interleavings
// against registries with different shard counts and checks three
// invariants the sharding refactor must preserve:
//
//	(a) observable contents (and every operation's return values) are
//	    identical to the single-shard oracle for the same op sequence;
//	(b) total resident bytes never exceed the budget, except for the
//	    carve-out both implementations share: a sole entry larger than
//	    the whole budget stays resident;
//	(c) the counters reconcile — every Get and Register moves exactly
//	    one of hits/misses, so hits+misses equals the number of lookups.
//
// Sequentially, eviction order is exact global LRU (recency stamps), so
// (a) is checked after every single operation; the concurrent test
// checks (b) and (c) at quiescence, and exists chiefly to give -race
// real interleavings to chew on.

// propCSV builds the i-th distinct dataset of the key pool, with a
// payload size that varies by key so evictions free uneven byte counts.
func propCSV(i int) []byte {
	var rows []byte
	for r := 0; r <= i%7; r++ {
		rows = append(rows, []byte(fmt.Sprintf("k%d-%d,v%d\n", i, r, r))...)
	}
	return append([]byte("a,b\n"), rows...)
}

// residentHashes walks every shard and returns the resident content
// addresses, sorted. Unlike Get it does not touch LRU state, so oracle
// comparisons do not perturb what they observe.
func (r *Registry) residentHashes() []string {
	var out []string
	for _, sh := range r.shards {
		sh.mu.Lock()
		sh.entries.Each(func(h Hash, _ *shardEntry) {
			out = append(out, string(h))
		})
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// lookups returns hits+misses across shards.
func lookups(s Stats) int64 { return s.Hits + s.Misses }

func TestPropertyShardedMatchesSingleShardOracle(t *testing.T) {
	const (
		poolSize = 24
		numOps   = 600
	)
	pool := make([][]byte, poolSize)
	hashes := make([]Hash, poolSize)
	var poolBytes int64
	for i := range pool {
		pool[i] = propCSV(i)
		hashes[i] = HashBytes(pool[i])
		d, _, err := New(0).Register(pool[i], dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		poolBytes += d.Bytes
	}
	// A budget around a third of the pool forces steady eviction traffic.
	budget := poolBytes / 3

	for _, shards := range []int{4, 16} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				oracle := NewSharded(budget, 1)
				sharded := NewSharded(budget, shards)
				var wantLookups int64
				for op := 0; op < numOps; op++ {
					i := rng.Intn(poolSize)
					switch rng.Intn(10) {
					case 0, 1, 2, 3: // Put
						_, e1, err1 := oracle.Register(pool[i], dataset.CSVOptions{})
						_, e2, err2 := sharded.Register(pool[i], dataset.CSVOptions{})
						if e1 != e2 || (err1 == nil) != (err2 == nil) {
							t.Fatalf("op %d: Register(%d) diverged: oracle (%v,%v) vs sharded (%v,%v)",
								op, i, e1, err1, e2, err2)
						}
						wantLookups++
					case 4, 5, 6, 7: // Get
						_, ok1 := oracle.Get(hashes[i])
						_, ok2 := sharded.Get(hashes[i])
						if ok1 != ok2 {
							t.Fatalf("op %d: Get(%d) diverged: oracle %v vs sharded %v", op, i, ok1, ok2)
						}
						wantLookups++
					default: // Remove
						ok1 := oracle.Remove(hashes[i])
						ok2 := sharded.Remove(hashes[i])
						if ok1 != ok2 {
							t.Fatalf("op %d: Remove(%d) diverged: oracle %v vs sharded %v", op, i, ok1, ok2)
						}
					}

					want, got := oracle.residentHashes(), sharded.residentHashes()
					if fmt.Sprint(want) != fmt.Sprint(got) {
						t.Fatalf("op %d: resident sets diverged:\noracle  %v\nsharded %v", op, want, got)
					}
					so, ss := oracle.Stats(), sharded.Stats()
					if so.Bytes != ss.Bytes || so.Entries != ss.Entries {
						t.Fatalf("op %d: stats diverged: oracle %d entries/%d B vs sharded %d entries/%d B",
							op, so.Entries, so.Bytes, ss.Entries, ss.Bytes)
					}
					for _, s := range []Stats{so, ss} {
						if s.Bytes > budget && s.Entries > 1 {
							t.Fatalf("op %d: %d resident bytes exceed the %d budget with %d entries",
								op, s.Bytes, budget, s.Entries)
						}
					}
				}
				for name, s := range map[string]Stats{"oracle": oracle.Stats(), "sharded": sharded.Stats()} {
					if lookups(s) != wantLookups {
						t.Errorf("%s: hits(%d)+misses(%d) = %d, want %d lookups",
							name, s.Hits, s.Misses, lookups(s), wantLookups)
					}
				}
			})
		}
	}
}

// TestPropertyConcurrentInvariants hammers one sharded registry from
// several goroutines with seeded per-goroutine op streams, then checks
// the byte-budget and counter invariants at quiescence. Run under -race
// this doubles as the shard-layer data-race audit.
func TestPropertyConcurrentInvariants(t *testing.T) {
	const (
		goroutines = 8
		opsEach    = 400
		poolSize   = 24
	)
	pool := make([][]byte, poolSize)
	hashes := make([]Hash, poolSize)
	var poolBytes int64
	for i := range pool {
		pool[i] = propCSV(i)
		hashes[i] = HashBytes(pool[i])
		d, _, err := New(0).Register(pool[i], dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		poolBytes += d.Bytes
	}
	budget := poolBytes / 3

	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := NewSharded(budget, shards)
			var wantLookups int64 // exact: computed from the fixed op mix below
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wantLookups += opsEach
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for op := 0; op < opsEach; op++ {
						i := rng.Intn(poolSize)
						if rng.Intn(2) == 0 {
							if _, _, err := r.Register(pool[i], dataset.CSVOptions{}); err != nil {
								t.Errorf("Register(%d): %v", i, err)
							}
						} else {
							r.Get(hashes[i])
						}
					}
				}(int64(g + 1))
			}
			wg.Wait()

			s := r.Stats()
			if s.Bytes > budget && s.Entries > 1 {
				t.Errorf("%d resident bytes exceed the %d budget with %d entries", s.Bytes, budget, s.Entries)
			}
			if lookups(s) != wantLookups {
				t.Errorf("hits(%d)+misses(%d) = %d, want %d lookups", s.Hits, s.Misses, lookups(s), wantLookups)
			}
			// Aggregates must equal the per-shard breakdown and the actual
			// resident set.
			var perShard ShardStats
			for _, ss := range s.Shards {
				perShard.Entries += ss.Entries
				perShard.Bytes += ss.Bytes
			}
			if perShard.Entries != s.Entries || perShard.Bytes != s.Bytes {
				t.Errorf("per-shard totals %d entries/%d B disagree with aggregate %d/%d",
					perShard.Entries, perShard.Bytes, s.Entries, s.Bytes)
			}
			if got := len(r.residentHashes()); got != s.Entries {
				t.Errorf("resident set has %d hashes, stats report %d entries", got, s.Entries)
			}
		})
	}
}
