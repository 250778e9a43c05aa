package operators

import (
	"os"
	"sync"

	"matstore/internal/cache"
	"matstore/internal/storage"
)

// This file is the shared join-build cache: it shares retained partitioned
// hash sides ACROSS queries and sessions, keyed on what the build physically
// depends on — the inner projection, its key column, the payload schema and
// materialization strategy, the requested partition override and the chunk
// size. Entries are byte-accounted (PartitionedTable.SizeBytes), evicted
// least-recently-used under a memory budget, and invalidated wholesale by
// bumping the projection's generation (the hook a data reload uses).
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
	// Demotion counters: evictions written to disk instead of dropped,
	// lookups served by rehydrating a demoted entry, and demote/rehydrate
	// failures (which degrade to a plain eviction or a fresh build).
	Demotions      int64 `json:"demotions"`
	DemotedHits    int64 `json:"demoted_hits"`
	DemoteFailures int64 `json:"demote_failures"`
	DemotedEntries int   `json:"demoted_entries"`
	DemotedBytes   int64 `json:"demoted_bytes"`
}

// BuildCache is a keyed LRU cache of retained join builds under a byte
// budget, with per-projection generation invalidation. Both tiers sit on the
// shared cache.LRU; the cache's own are the single-flight slots, the
// generations and what eviction means (demotion, then file removal).
type BuildCache struct {
	mu       sync.Mutex
	capacity int64
	resident *cache.LRU[BuildKey, retained] // charged PartitionedTable.SizeBytes
	inflight map[BuildKey]*buildFlight
	gens     map[string]uint64
	stats    BuildCacheStats

	// Demotion tier (EnableDemotion): evicted builds persist their hash
	// entries to disk instead of vanishing, under their own byte budget.
	demoteDir string
	demoted   *cache.LRU[BuildKey, *demotedBuild] // charged file bytes
}

// demotedCapFactor bounds the demotion tier's disk bytes to this multiple of
// the in-memory budget (an unbounded cache demotes nothing: it never evicts).
const demotedCapFactor = 8

// demotedBuild is one evicted build living on disk. The stored-column
// handles are retained so rehydration can re-window payload without a
// catalog lookup.
type demotedBuild struct {
	path    string
	gen     uint64
	cols    []*storage.Column
	payload []string
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
		resident: cache.New[BuildKey, retained](),
		inflight: make(map[BuildKey]*buildFlight),
		gens:     make(map[string]uint64),
		demoted:  cache.New[BuildKey, *demotedBuild](),
	}
}

// EnableDemotion turns eviction into demotion: evicted builds write their
// hash entries to spill-format files under dir, bounded by demotedCapFactor
// times the in-memory budget of disk. Demoted entries rehydrate on the next
// lookup of their key, so warm keys stay probeable past the byte budget.
func (c *BuildCache) EnableDemotion(dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.demoteDir = dir
}

// Stats returns a snapshot of the cache counters.
func (c *BuildCache) Stats() BuildCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.resident.Len()
	st.Bytes = c.resident.Bytes()
	st.Capacity = c.capacity
	st.DemotedEntries = c.demoted.Len()
	st.DemotedBytes = c.demoted.Bytes()
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
	n := c.resident.DeleteFunc(func(key BuildKey, _ retained) bool { return key.Proj == proj })
	n += c.demoted.DeleteFunc(func(key BuildKey, db *demotedBuild) bool {
		if key.Proj == proj {
			os.Remove(db.path)
		}
		return key.Proj == proj
	})
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
		if rb, ok := c.resident.Get(key); ok {
			if rb.gen == gen {
				c.stats.Hits++
				c.mu.Unlock()
				return rb.table, true, nil
			}
			// Stale generation (Invalidate removes eagerly; this guards a
			// racy bump between lookup phases).
			c.resident.Delete(key)
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
		if db, ok := c.demoted.Peek(key); ok {
			if db.gen != gen {
				c.demoted.Delete(key)
				os.Remove(db.path)
			} else if rt, ok := c.rehydrate(key, gen, db); ok {
				// rehydrate reacquired and released c.mu; a success means the
				// table is cached under the checked generation.
				return rt, true, nil
			}
			// Rehydration failed or went stale: the demoted record is gone;
			// retry from the top and fall through to a fresh build.
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

// rehydrate loads a demoted build back into the resident tier under the
// single-flight protocol (concurrent lookups of the key wait on the flight
// rather than re-reading the file). Called with c.mu held; returns with c.mu
// released. ok=false means the demoted record has been dropped (failed read
// or stale generation) and the caller should retry, falling through to a
// fresh build.
func (c *BuildCache) rehydrate(key BuildKey, gen uint64, db *demotedBuild) (*PartitionedTable, bool) {
	fl := &buildFlight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	rt, err := LoadDemoted(db.path, db.cols, db.payload)

	c.mu.Lock()
	delete(c.inflight, key)
	// An Invalidate may have removed the record (and file) while we read it.
	present := false
	if cur, ok := c.demoted.Peek(key); ok && cur == db {
		c.demoted.Delete(key)
		os.Remove(db.path)
		present = true
	}
	ok := err == nil && present && c.gens[key.Proj] == gen
	if ok {
		c.insertLocked(key, gen, rt)
		c.stats.Hits++
		c.stats.DemotedHits++
	} else if err != nil {
		c.stats.DemoteFailures++
	}
	c.mu.Unlock()
	close(fl.done)
	if !ok {
		return nil, false
	}
	return rt, true
}

// insertLocked adds a built table, evicting least-recently-used entries
// until the budget holds. A table larger than the whole budget is served but
// not retained.
func (c *BuildCache) insertLocked(key BuildKey, gen uint64, rt *PartitionedTable) {
	if c.capacity > 0 && rt.SizeBytes > c.capacity {
		return
	}
	c.resident.Put(key, retained{rt, gen}, rt.SizeBytes)
	if c.capacity > 0 {
		c.stats.Evictions += int64(c.resident.Shrink(c.capacity, nil, c.demoteLocked))
	}
}

// demoteLocked is the resident tier's evict hook: with demotion enabled it
// persists the evicted build's hash entries to disk. A failed demote degrades
// to a plain eviction. The write happens under c.mu: demote files are hash
// entries only (no payload), so the IO is proportional to key cardinality,
// not table bytes.
func (c *BuildCache) demoteLocked(key BuildKey, rb retained) {
	if c.demoteDir == "" || rb.table.DeferredPayload() {
		return
	}
	path, bytes, err := WriteDemoted(rb.table, c.demoteDir)
	if err != nil {
		c.stats.DemoteFailures++
		return
	}
	c.stats.Demotions++
	diskCap := demotedCapFactor * c.capacity
	if bytes > diskCap {
		os.Remove(path) // larger than the whole disk budget: not retained
		return
	}
	db := &demotedBuild{path: path, gen: rb.gen, cols: rb.table.cols, payload: rb.table.payload}
	if old, replaced := c.demoted.Put(key, db, bytes); replaced {
		os.Remove(old.path)
	}
	c.demoted.Shrink(diskCap, nil, func(_ BuildKey, db *demotedBuild) { os.Remove(db.path) })
}
