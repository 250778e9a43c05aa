package operators

import (
	"sync"

	"matstore/internal/cache"
)

// This file is the shared join-build cache: it shares retained partitioned
// hash sides ACROSS queries and sessions, keyed on what the build physically
// depends on — the inner projection, its key column, the payload schema and
// materialization strategy, the requested partition override and the chunk
// size. Entries are byte-accounted (PartitionedTable.SizeBytes), evicted
// least-recently-used under a memory budget — an evicted build is dropped and
// rebuilt on its next miss — and invalidated wholesale by bumping the
// projection's generation (the hook a data reload uses).
//
// Concurrency: lookups and inserts are mutex-guarded; a miss registers an
// in-flight slot so concurrent requests for the same key wait for the one
// build instead of racing duplicate scans (single-flight). The cached
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

// retained is one cached partitioned hash side and the generation of its
// projection it was built under.
type retained struct {
	table *PartitionedTable
	gen   uint64
}

// BuildCacheStats are the cache's cumulative counters.
type BuildCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// WaitedBuilds counts misses that waited for another request's in-flight
	// build of the same key instead of building their own.
	WaitedBuilds int64 `json:"waited_builds"`
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	Capacity     int64 `json:"capacity_bytes"`
}

// BuildCache is a keyed LRU cache of retained join builds under a byte
// budget, with per-projection generation invalidation. It sits on the shared
// cache.LRU; the cache's own are the single-flight slots and the generations.
type BuildCache struct {
	mu       sync.Mutex
	capacity int64
	lru      *cache.LRU[BuildKey, retained] // charged PartitionedTable.SizeBytes
	inflight map[BuildKey]*buildFlight
	gens     map[string]uint64
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
		lru:      cache.New[BuildKey, retained](),
		inflight: make(map[BuildKey]*buildFlight),
		gens:     make(map[string]uint64),
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

// Generation returns the projection's current generation.
func (c *BuildCache) Generation(proj string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gens[proj]
}

// Invalidate bumps the projection's generation and drops every cached build
// over it: the hook a data reload (or projection rewrite) calls so no query
// probes a stale hash side.
func (c *BuildCache) Invalidate(proj string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[proj]++
	n := c.lru.DeleteFunc(func(key BuildKey, _ retained) bool { return key.Proj == proj })
	c.stats.Invalidations += int64(n)
}

// GetOrBuild returns the cached table for key, building (and caching) it via
// build on a miss. The second return reports a cache hit. Concurrent misses
// on one key share a single build. A failed build caches nothing, and a
// build overtaken by an Invalidate is neither cached nor handed to requests
// that started after the invalidation.
func (c *BuildCache) GetOrBuild(key BuildKey, build func() (*PartitionedTable, error)) (*PartitionedTable, bool, error) {
	for {
		c.mu.Lock()
		gen := c.gens[key.Proj]
		if rb, ok := c.lru.Get(key); ok {
			if rb.gen == gen {
				c.stats.Hits++
				c.mu.Unlock()
				return rb.table, true, nil
			}
			// Stale generation (Invalidate removes eagerly; this guards a
			// racy bump between lookup phases).
			c.lru.Delete(key)
		}
		if fl, ok := c.inflight[key]; ok {
			// Wait for the in-flight build of this key, then retry from the
			// top: the flight may have been started before an Invalidate, so
			// only the generation-checked cache entry (or a fresh build) may
			// serve this request — never fl.rt directly.
			c.stats.WaitedBuilds++
			c.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, false, fl.err
			}
			continue
		}
		fl := &buildFlight{done: make(chan struct{})}
		c.inflight[key] = fl
		c.stats.Misses++
		c.mu.Unlock()

		rt, err := build()
		fl.rt, fl.err = rt, err

		c.mu.Lock()
		delete(c.inflight, key)
		stale := err == nil && c.gens[key.Proj] != gen
		if err == nil && !stale {
			c.insertLocked(key, gen, rt)
		}
		c.mu.Unlock()
		close(fl.done)
		if err != nil {
			return nil, false, err
		}
		if stale {
			// The projection changed under the build: rebuild against the
			// new generation rather than serving stale data.
			continue
		}
		return rt, false, nil
	}
}

// insertLocked adds a built table, evicting least-recently-used entries
// until the budget holds. A table larger than the whole budget is served but
// not retained.
func (c *BuildCache) insertLocked(key BuildKey, gen uint64, rt *PartitionedTable) {
	if c.capacity > 0 && rt.SizeBytes > c.capacity {
		return
	}
	c.lru.Put(key, retained{rt, gen}, rt.SizeBytes)
	if c.capacity > 0 {
		c.stats.Evictions += int64(c.lru.Shrink(c.capacity, nil))
	}
}
