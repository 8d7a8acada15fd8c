// Package lru is the repository's one recency structure. List is a map
// ordered from most to least recently used, with no lock of its own: the
// registry shards and the spill index embed it under the mutex that
// also guards their byte accounting. Cache wraps a List with a mutex,
// an entry-count bound and hit/miss/eviction counters: the job
// engine's outcome caches and sessions, and the lattice navigation
// cache, are Caches.
//
// Both share one put rule: a key that is already present keeps its
// incumbent value (two concurrent misses computed the same answer, or
// raced to insert the same content address; the first one stays).
package lru

import (
	"container/list"
	"sync"
)

// List is a map whose entries are ordered by recency. It is not safe
// for concurrent use; the zero value is an empty list, and a List must
// not be copied after first use.
type List[K comparable, V any] struct {
	order list.List // front = most recently used
	index map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// Len returns the number of entries.
func (l *List[K, V]) Len() int { return l.order.Len() }

// Get returns the value under k and marks it most recently used.
func (l *List[K, V]) Get(k K) (V, bool) {
	el, ok := l.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns the value under k without touching its recency.
func (l *List[K, V]) Peek(k K) (V, bool) {
	el, ok := l.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k as the most recently used entry. When k is
// already present the incumbent is kept, marked most recently used and
// returned with existed == true.
func (l *List[K, V]) Put(k K, v V) (resident V, existed bool) {
	if el, ok := l.index[k]; ok {
		l.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	if l.index == nil {
		l.index = make(map[K]*list.Element)
	}
	l.index[k] = l.order.PushFront(&entry[K, V]{key: k, val: v})
	return v, false
}

// Remove deletes k and returns the value it held.
func (l *List[K, V]) Remove(k K) (V, bool) {
	el, ok := l.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.Remove(el)
	delete(l.index, k)
	return el.Value.(*entry[K, V]).val, true
}

// Oldest returns the least recently used entry other than spare, the
// entry whose insertion triggered the eviction: it is never the victim,
// so one entry larger than a whole budget stays usable. When spare is
// the oldest (possible under concurrent touches), the entry just ahead
// of it is returned so eviction still progresses. ok is false when the
// list is empty or holds only spare.
func (l *List[K, V]) Oldest(spare K) (k K, v V, ok bool) {
	el := l.order.Back()
	if el != nil && el.Value.(*entry[K, V]).key == spare {
		el = el.Prev()
	}
	if el == nil {
		return k, v, false
	}
	e := el.Value.(*entry[K, V])
	return e.key, e.val, true
}

// Each calls fn on every entry, most recently used first. fn must not
// modify the list.
func (l *List[K, V]) Each(fn func(K, V)) {
	for el := l.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		fn(e.key, e.val)
	}
}

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Cache is an entry-count-bounded List guarded by its own lock, with
// hit/miss/eviction counters. Cached values should be immutable once
// put, so one entry can serve any number of concurrent readers.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	list      List[K, V]
	hits      int64
	misses    int64
	evictions int64
}

// NewCache returns a cache holding at most capacity entries (values
// below 1 are clamped to 1).
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{capacity: capacity}
}

// Get returns the value under k, counting a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.list.Get(k)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put caches v under k unless an entry is already resident, and returns
// the resident value. Entries beyond capacity are evicted least
// recently used first; the entry just put is never the victim.
func (c *Cache[K, V]) Put(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, existed := c.list.Put(k, v)
	if existed {
		return v
	}
	for c.list.Len() > c.capacity {
		old, _, _ := c.list.Oldest(k)
		c.list.Remove(old)
		c.evictions++
	}
	return v
}

// Each calls fn on every resident value, most recently used first,
// under the cache lock.
func (c *Cache[K, V]) Each(fn func(V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.list.Each(func(_ K, v V) { fn(v) })
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.list.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
