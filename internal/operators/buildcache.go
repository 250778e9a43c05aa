package operators

import (
	"sync"

	"matstore/internal/cache"
)

// This file is the shared join-build cache: it shares retained partitioned
// hash sides ACROSS queries and sessions, keyed on what the build physically
// depends on — the inner projection, its key column, the payload schema and
// materialization strategy, the requested partition override and the chunk
// size. Entries are byte-accounted (PartitionedTable.SizeBytes) and evicted
// least-recently-used under a memory budget — an evicted build is dropped and
// rebuilt on its next miss. A served database is read-only, so a retained
// build stays valid until it is evicted.
//
// Concurrency: lookups and inserts are mutex-guarded; a miss registers an
// in-flight slot so concurrent requests for the same key wait for the one
// build instead of racing duplicate scans (single-flight), and every waiter
// takes the flight's table — also one too large to retain. The cached
// *PartitionedTable is read-only after build, so handing one table to many
// concurrent probes is safe.

// BuildKey identifies one retained join build. Partitions is the plan's
// requested override (0 = derive from the worker count), not the resolved
// count: probe results are byte-identical at every partition count, so a
// build first produced under 4 workers serves later 1-worker queries.
type BuildKey struct {
	Proj       string
	KeyCol     string
	Payload    string // payload column names, comma-joined
	Strategy   RightStrategy
	Partitions int
	ChunkSize  int64
}

// BuildCacheStats are the cache's cumulative counters.
type BuildCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// WaitedBuilds counts lookups that waited for another request's in-flight
	// build of the same key instead of building their own; each that gets
	// the table also counts as a hit.
	WaitedBuilds int64 `json:"waited_builds"`
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	Capacity     int64 `json:"capacity_bytes"`
}

// BuildCache is a keyed LRU cache of retained join builds under a byte
// budget. It sits on the shared cache.LRU; the cache's own are the
// single-flight slots.
type BuildCache struct {
	mu       sync.Mutex
	capacity int64
	lru      *cache.LRU[BuildKey, *PartitionedTable] // charged SizeBytes
	inflight map[BuildKey]*buildFlight
	stats    BuildCacheStats
}

// buildFlight is one in-progress build other requests can wait on.
type buildFlight struct {
	done chan struct{}
	rt   *PartitionedTable
	err  error
}

// NewBuildCache returns a cache bounded to capacity bytes (<= 0 means
// unbounded).
func NewBuildCache(capacity int64) *BuildCache {
	return &BuildCache{
		capacity: capacity,
		lru:      cache.New[BuildKey, *PartitionedTable](),
		inflight: make(map[BuildKey]*buildFlight),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *BuildCache) Stats() BuildCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	st.Bytes = c.lru.Bytes()
	st.Capacity = c.capacity
	return st
}

// GetOrBuild returns the cached table for key, building (and caching) it via
// build on a miss. The second return reports a cache hit. Concurrent misses
// on one key share a single build: the waiters take its table (or its error)
// and count as hits. A failed build caches nothing.
func (c *BuildCache) GetOrBuild(key BuildKey, build func() (*PartitionedTable, error)) (*PartitionedTable, bool, error) {
	c.mu.Lock()
	if rt, ok := c.lru.Get(key); ok {
		c.stats.Hits++
		c.mu.Unlock()
		return rt, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.stats.WaitedBuilds++
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		c.mu.Lock()
		c.stats.Hits++
		c.mu.Unlock()
		return fl.rt, true, nil
	}
	fl := &buildFlight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.stats.Misses++
	c.mu.Unlock()

	rt, err := build()
	fl.rt, fl.err = rt, err

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.insertLocked(key, rt)
	}
	c.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, false, err
	}
	return rt, false, nil
}

// insertLocked adds a built table, evicting least-recently-used entries
// until the budget holds. A table larger than the whole budget is served but
// not retained.
func (c *BuildCache) insertLocked(key BuildKey, rt *PartitionedTable) {
	if c.capacity > 0 && rt.SizeBytes > c.capacity {
		return
	}
	c.lru.Put(key, rt, rt.SizeBytes)
	if c.capacity > 0 {
		c.stats.Evictions += int64(c.lru.Shrink(c.capacity, nil))
	}
}
