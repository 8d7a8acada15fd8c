package jobs

import (
	"container/list"
	"sync"
)

// CacheStats is a point-in-time snapshot of one LRU's counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// lru is the engine's one entry-count-bounded LRU, guarded by its own
// lock: each job kind's outcome cache and the explore navigation
// sessions are instances of it. Cached values are immutable once put,
// so one entry can serve any number of concurrent readers.
type lru[V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{capacity: capacity, ll: list.New(), entries: make(map[string]*list.Element)}
}

func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put caches val under key unless an entry is already resident (two
// concurrent misses computed the same answer; the first one stays), and
// returns the resident value.
func (c *lru[V]) put(key string, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val
	}
	c.entries[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*lruEntry[V]).key)
		c.evictions++
	}
	return val
}

// each calls fn on every resident value, most recently used first,
// under the cache lock.
func (c *lru[V]) each(fn func(V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*lruEntry[V]).val)
	}
}

func (c *lru[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
