package lru

import (
	"reflect"
	"testing"
)

// keys lists a List's keys, most recently used first.
func keys(l *List[string, int]) []string {
	var out []string
	l.Each(func(k string, _ int) { out = append(out, k) })
	return out
}

func TestCacheCounters(t *testing.T) {
	c := NewCache[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	c.Put("c", 3) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	want := Stats{Entries: 2, Capacity: 2, Hits: 1, Misses: 2, Evictions: 1}
	if got := c.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

func TestCachePutKeepsIncumbent(t *testing.T) {
	c := NewCache[string, int](2)
	if got := c.Put("a", 1); got != 1 {
		t.Fatalf("first Put returned %d, want 1", got)
	}
	if got := c.Put("a", 2); got != 1 {
		t.Fatalf("second Put returned %d, want the incumbent 1", got)
	}
	if v, _ := c.Get("a"); v != 1 {
		t.Fatalf("Get(a) = %d after a losing Put, want 1", v)
	}
	// The losing Put still refreshed a's recency: b is evicted first.
	c.Put("b", 2)
	c.Put("a", 9)
	c.Put("c", 3)
	var got []int
	c.Each(func(v int) { got = append(got, v) })
	if !reflect.DeepEqual(got, []int{3, 1}) {
		t.Fatalf("resident values = %v, want [3 1]", got)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("Stats = %+v: a keep-incumbent Put must not count a hit, miss or eviction", st)
	}
}

func TestCacheEvictionOrderAtCapacity(t *testing.T) {
	c := NewCache[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	c.Get("a") // order now a, c, b
	var evicted []string
	for _, k := range []string{"d", "e", "f"} {
		before := residentKeys(c)
		c.Put(k, 0)
		after := residentKeys(c)
		for _, b := range before {
			if !contains(after, b) {
				evicted = append(evicted, b)
			}
		}
	}
	if want := []string{"b", "c", "a"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("eviction order %v, want %v", evicted, want)
	}
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 3 {
		t.Fatalf("Stats = %+v, want 3 entries and 3 evictions", st)
	}
}

func TestNewCacheClampsCapacity(t *testing.T) {
	c := NewCache[string, int](0)
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("a capacity-clamped cache dropped the entry just put")
	}
	if st := c.Stats(); st.Capacity != 1 {
		t.Fatalf("capacity %d, want 1", st.Capacity)
	}
}

func residentKeys(c *Cache[string, int]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return keys(&c.list)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestListOldestSkipsSpare(t *testing.T) {
	var l List[string, int]
	if _, _, ok := l.Oldest("x"); ok {
		t.Fatal("Oldest on an empty list reported an entry")
	}
	l.Put("only", 1)
	if _, _, ok := l.Oldest("only"); ok {
		t.Fatal("Oldest returned the spare when it is the only entry")
	}
	if k, v, ok := l.Oldest("other"); !ok || k != "only" || v != 1 {
		t.Fatalf("Oldest(other) = %q, %d, %v; want only, 1, true", k, v, ok)
	}
	l.Put("b", 2)
	l.Put("c", 3) // order c, b, only
	if k, _, _ := l.Oldest("c"); k != "only" {
		t.Fatalf("Oldest(c) = %q, want the tail only", k)
	}
	// When the spare is the tail, the entry just ahead of it is returned.
	if k, _, _ := l.Oldest("only"); k != "b" {
		t.Fatalf("Oldest(only) = %q, want b", k)
	}
}

func TestListRecencyAndRemove(t *testing.T) {
	var l List[string, int]
	for i, k := range []string{"a", "b", "c"} {
		if _, existed := l.Put(k, i); existed {
			t.Fatalf("Put(%s) reported an incumbent", k)
		}
	}
	if got := keys(&l); !reflect.DeepEqual(got, []string{"c", "b", "a"}) {
		t.Fatalf("order %v, want [c b a]", got)
	}
	if v, ok := l.Peek("a"); !ok || v != 0 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if got := keys(&l); got[2] != "a" {
		t.Fatalf("Peek moved a: order %v", got)
	}
	l.Get("a")
	if got := keys(&l); !reflect.DeepEqual(got, []string{"a", "c", "b"}) {
		t.Fatalf("order after Get(a) = %v, want [a c b]", got)
	}
	if v, existed := l.Put("b", 7); !existed || v != 1 {
		t.Fatalf("Put(b) over an incumbent = %d, %v; want 1, true", v, existed)
	}
	if v, ok := l.Remove("c"); !ok || v != 2 {
		t.Fatalf("Remove(c) = %d, %v", v, ok)
	}
	if _, ok := l.Remove("c"); ok {
		t.Fatal("second Remove(c) found an entry")
	}
	if got := keys(&l); !reflect.DeepEqual(got, []string{"b", "a"}) || l.Len() != 2 {
		t.Fatalf("order after Remove = %v (len %d), want [b a]", got, l.Len())
	}
}
