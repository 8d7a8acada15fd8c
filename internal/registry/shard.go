package registry

import (
	"sync"

	"repro/internal/lru"
)

// shard is one lock stripe of the registry: its own mutex, recency
// list and counters. Shards know nothing of the global budget —
// Registry.enforceBudget drives cross-shard eviction through oldest and
// evictIfUnchanged, locking one shard at a time.
type shard struct {
	mu        sync.Mutex
	entries   lru.List[Hash, *shardEntry] // recency within this shard
	size      int64
	hits      int64
	misses    int64
	evictions int64
}

// shardEntry is one resident dataset plus its global recency stamp. The
// stamp comes from the registry-wide clock and is refreshed on every
// touch, so comparing the tail stamps of all shards identifies the
// globally least-recently-used entry even though each shard orders only
// its own list.
type shardEntry struct {
	e     *Entry
	stamp int64
}

// get looks up h, refreshing its recency with stamp on a hit. A miss
// moves no counter — Registry.Get and Register decide whether a miss is
// chargeable (a failed parse during Register is, a pre-parse probe is
// not), via miss.
func (s *shard) get(h Hash, stamp int64) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.entries.Get(h)
	if !ok {
		return nil, false
	}
	s.hits++
	se.stamp = stamp
	return se.e, true
}

// miss charges one miss to the shard's counters.
func (s *shard) miss() {
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
}

// put inserts e with the given recency stamp, charging a miss. When the
// hash is already resident — a concurrent identical Register won the
// race — the incumbent is refreshed and returned with existed == true
// and a hit is charged instead; the caller discards its parse.
func (s *shard) put(e *Entry, stamp int64) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	se, existed := s.entries.Put(e.Hash, &shardEntry{e: e, stamp: stamp})
	if existed {
		s.hits++
		se.stamp = stamp
		return se.e, true
	}
	s.misses++
	s.size += e.Bytes
	return e, false
}

// remove drops h, returning the bytes freed.
func (s *shard) remove(h Hash) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.entries.Remove(h)
	if !ok {
		return 0, false
	}
	s.size -= se.e.Bytes
	return se.e.Bytes, true
}

// oldest peeks at the shard's least-recently-used entry other than
// spare (the entry whose insert triggered enforcement is never the
// victim) and its recency stamp, and reports the shard's entry count.
// It evicts nothing: the eviction cycle confirms the peek with
// evictIfUnchanged.
func (s *shard) oldest(spare Hash) (e *Entry, stamp int64, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries = s.entries.Len()
	if _, se, ok := s.entries.Oldest(spare); ok {
		return se.e, se.stamp, entries
	}
	return nil, 0, entries
}

// evictStatus classifies the outcome of evictIfUnchanged.
type evictStatus int

const (
	evictOK      evictStatus = iota // the entry was evicted
	evictTouched                    // recency moved since the peek; entry kept
	evictGone                       // the entry is no longer resident
)

// stampOf returns h's current recency stamp without refreshing it. The
// eviction cycle calls it after acquiring the victim's key lock to
// confirm the peeked entry is still resident and untouched before
// paying for the spill write; stamps are globally unique per touch, so
// an equal stamp proves nothing happened to the entry in between.
func (s *shard) stampOf(h Hash) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.entries.Peek(h)
	if !ok {
		return 0, false
	}
	return se.stamp, true
}

// evictIfUnchanged evicts h only if its recency stamp still equals the
// stamp observed at peek time — a compare-and-evict. A stamp mismatch
// means a concurrent Get touched the entry (it is no longer LRU; keep
// it); a missing entry means a concurrent Remove beat us (the caller
// must undo its just-written spill file, or Remove's totality breaks).
func (s *shard) evictIfUnchanged(h Hash, stamp int64) (int64, evictStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.entries.Peek(h)
	if !ok {
		return 0, evictGone
	}
	if se.stamp != stamp {
		return 0, evictTouched
	}
	s.entries.Remove(h)
	s.size -= se.e.Bytes
	s.evictions++
	return se.e.Bytes, evictOK
}

// stats snapshots the shard counters.
func (s *shard) stats() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShardStats{
		Entries:   s.entries.Len(),
		Bytes:     s.size,
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
	}
}
