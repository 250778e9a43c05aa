package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// modelEntry is one entry of the naive reference: a slice kept most recent
// first, searched linearly.
type modelEntry struct {
	key, val int
	size     int64
}

type model []modelEntry

func (m model) find(key int) int {
	return slices.IndexFunc(m, func(e modelEntry) bool { return e.key == key })
}

func (m model) bytes() (n int64) {
	for _, e := range m {
		n += e.size
	}
	return n
}

// shrink is Shrink's contract written out: from the cold end, skipping what
// skip reports and never the most recent entry, until capBytes holds.
func (m model) shrink(capBytes int64, skip func(int, int) bool) (model, []int) {
	var evicted []int
	for i := len(m) - 1; i > 0 && m.bytes() > capBytes; i-- {
		if !skip(m[i].key, m[i].val) {
			evicted = append(evicted, m[i].key)
			m = slices.Delete(m, i, i+1)
		}
	}
	return m, evicted
}

// contents reads the LRU's entries most recent first, through its ring.
func contents(c *LRU[int, int]) model {
	var out model
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, modelEntry{e.key, e.val, e.size})
	}
	return out
}

// TestLRUAgainstModel drives seeded random operation sequences — get, peek,
// put (new and replacing, zero-sized and oversized), delete, delete-func and
// shrink under zero, negative and ordinary capacities with a skip predicate
// standing in for pins — and checks after every step, against the slice
// model, the contents, the recency order, the byte total, each call's return
// values and the evict hook's call sequence.
func TestLRUAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New[int, int]()
		var m model
		pinned := map[int]bool{} // the skip predicate: stands in for pins
		skip := func(k, _ int) bool { return pinned[k] }
		for step := 0; step < 2000; step++ {
			key := rng.Intn(24)
			what := ""
			switch op := rng.Intn(10); op {
			case 0, 1:
				what = fmt.Sprintf("get %d", key)
				v, ok := c.Get(key)
				i := m.find(key)
				if ok != (i >= 0) || (ok && v != m[i].val) {
					t.Fatalf("seed %d step %d: %s = %d, %v; model index %d", seed, step, what, v, ok, i)
				}
				if i >= 0 {
					e := m[i]
					m = slices.Insert(slices.Delete(m, i, i+1), 0, e)
				}
			case 2:
				what = fmt.Sprintf("peek %d", key)
				v, ok := c.Peek(key)
				if i := m.find(key); ok != (i >= 0) || (ok && v != m[i].val) {
					t.Fatalf("seed %d step %d: %s = %d, %v; model index %d", seed, step, what, v, ok, i)
				}
			case 3, 4, 5:
				size := rng.Int63n(40) // 0 included
				if rng.Intn(8) == 0 {
					size = 500 + rng.Int63n(500) // larger than any capacity used below
				}
				what = fmt.Sprintf("put %d size %d", key, size)
				old, replaced := c.Put(key, step, size)
				i := m.find(key)
				if replaced != (i >= 0) || (replaced && old != m[i].val) {
					t.Fatalf("seed %d step %d: %s replaced %d, %v; model index %d", seed, step, what, old, replaced, i)
				}
				if i >= 0 {
					m = slices.Delete(m, i, i+1)
				}
				m = slices.Insert(m, 0, modelEntry{key, step, size})
			case 6:
				what = fmt.Sprintf("delete %d", key)
				v, ok := c.Delete(key)
				i := m.find(key)
				if ok != (i >= 0) || (ok && v != m[i].val) {
					t.Fatalf("seed %d step %d: %s = %d, %v; model index %d", seed, step, what, v, ok, i)
				}
				if i >= 0 {
					m = slices.Delete(m, i, i+1)
				}
			case 7:
				mod := 2 + rng.Intn(4)
				what = fmt.Sprintf("delete-func key%%%d==0", mod)
				var visited []int
				n := c.DeleteFunc(func(k, _ int) bool {
					visited = append(visited, k)
					return k%mod == 0
				})
				var order []int
				for _, e := range m {
					order = append(order, e.key)
				}
				if !slices.Equal(visited, order) {
					t.Fatalf("seed %d step %d: %s visited %v, want most recent first %v", seed, step, what, visited, order)
				}
				before := len(m)
				m = slices.DeleteFunc(m, func(e modelEntry) bool { return e.key%mod == 0 })
				if n != before-len(m) {
					t.Fatalf("seed %d step %d: %s removed %d, model %d", seed, step, what, n, before-len(m))
				}
			case 8:
				// Pin or unpin: changes what the next shrinks may evict.
				if pinned[key] = !pinned[key]; !pinned[key] {
					delete(pinned, key)
				}
				continue
			case 9:
				capBytes := []int64{0, -5, 30, 100, 250}[rng.Intn(5)]
				what = fmt.Sprintf("shrink to %d, pinned %v", capBytes, pinned)
				var hooked []int
				n := c.Shrink(capBytes, skip, func(k, v int) {
					if _, ok := c.Peek(k); ok {
						t.Fatalf("seed %d step %d: evict hook called with %d still in the LRU", seed, step, k)
					}
					hooked = append(hooked, k)
				})
				var want []int
				m, want = m.shrink(capBytes, skip)
				if n != len(want) || !slices.Equal(hooked, want) {
					t.Fatalf("seed %d step %d: %s evicted %d %v, model %v", seed, step, what, n, hooked, want)
				}
			}
			if got := contents(c); !slices.Equal(got, m) {
				t.Fatalf("seed %d step %d: after %s\n lru   %v\n model %v", seed, step, what, got, m)
			}
			if c.Len() != len(m) || c.Bytes() != m.bytes() {
				t.Fatalf("seed %d step %d: after %s: len %d bytes %d, model len %d bytes %d",
					seed, step, what, c.Len(), c.Bytes(), len(m), m.bytes())
			}
		}
	}
}

// TestLRUShrinkNilHooks: skip and evict are optional, and the most recent
// entry survives a shrink to nothing.
func TestLRUShrinkNilHooks(t *testing.T) {
	c := New[string, int]()
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Put("c", 3, 1000)
	if n := c.Shrink(0, nil, nil); n != 2 {
		t.Fatalf("evicted %d, want 2", n)
	}
	if v, ok := c.Peek("c"); !ok || v != 3 || c.Len() != 1 || c.Bytes() != 1000 {
		t.Fatalf("most recent entry did not survive: %d %v len %d bytes %d", v, ok, c.Len(), c.Bytes())
	}
}
