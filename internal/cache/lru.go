// Package cache holds the one LRU under every cache in the system: the
// buffer pool, the join-build cache and its demoted tier, the plan cache,
// and the result cache and its negative sibling. It is the mechanism only —
// a recency-ordered map that charges each entry a caller-supplied size.
// Everything that makes those caches differ (pins, generations,
// single-flight, cost thresholds, what to do with an evicted value, the
// counters) stays with its owner, which also supplies the lock: an LRU is
// NOT safe for concurrent use.
package cache

// entry is one cached value and its links in the recency ring. Key, value,
// size and links share one allocation.
type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

// LRU is an unsynchronized, size-charged, least-recently-used map.
type LRU[K comparable, V any] struct {
	m map[K]*entry[K, V]
	// root is the ring's sentinel: root.next is the most recent entry,
	// root.prev the coldest.
	root  entry[K, V]
	bytes int64
}

// New returns an empty LRU.
func New[K comparable, V any]() *LRU[K, V] {
	c := &LRU[K, V]{m: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Len returns the number of entries.
func (c *LRU[K, V]) Len() int { return len(c.m) }

// Bytes returns the sum of the entries' charged sizes.
func (c *LRU[K, V]) Bytes() int64 { return c.bytes }

// Get returns key's value and makes it the most recent entry.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Peek returns key's value without touching the recency order.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	if e, ok := c.m[key]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores val under key, charged size, as the most recent entry. An
// existing entry for key is replaced and its value returned, so that the
// owner can release whatever the old value held. Put never evicts: the owner
// calls Shrink with its own capacity, pins and hook.
func (c *LRU[K, V]) Put(key K, val V, size int64) (old V, replaced bool) {
	if e, ok := c.m[key]; ok {
		old, replaced = e.val, true
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.unlink(e)
		c.pushFront(e)
		return old, replaced
	}
	e := &entry[K, V]{key: key, val: val, size: size}
	c.m[key] = e
	c.bytes += size
	c.pushFront(e)
	return old, false
}

// Delete removes key and returns the value it held.
func (c *LRU[K, V]) Delete(key K) (V, bool) {
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.remove(e)
	return e.val, true
}

// DeleteFunc removes every entry del reports true for, most recent first,
// and returns how many it removed. del may release what the value holds; it
// must not touch the LRU.
func (c *LRU[K, V]) DeleteFunc(del func(K, V) bool) int {
	n := 0
	for e := c.root.next; e != &c.root; {
		next := e.next
		if del(e.key, e.val) {
			c.remove(e)
			n++
		}
		e = next
	}
	return n
}

// Shrink evicts from the cold end until at most capBytes are charged, and
// returns how many entries it evicted. Entries skip reports true for are
// passed over (a pinned block stays, and the cache stays over capacity until
// the pin is released and the owner shrinks again). The most recent entry is
// never evicted: an entry larger than the whole capacity can still be
// served, and the value a lookup is about to return cannot be the one its
// own insertion pushed out. evict is called with each entry after it has
// left the LRU; it must not touch this LRU. skip and evict may be nil.
func (c *LRU[K, V]) Shrink(capBytes int64, skip func(K, V) bool, evict func(K, V)) int {
	n := 0
	for e := c.root.prev; c.bytes > capBytes && e != &c.root && e != c.root.next; {
		prev := e.prev
		if skip == nil || !skip(e.key, e.val) {
			c.remove(e)
			n++
			if evict != nil {
				evict(e.key, e.val)
			}
		}
		e = prev
	}
	return n
}

func (c *LRU[K, V]) remove(e *entry[K, V]) {
	c.unlink(e)
	delete(c.m, e.key)
	c.bytes -= e.size
}

func (c *LRU[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}
