package service

import (
	"slices"
	"sync"

	"matstore/internal/cache"
)

// DefaultResultCacheBytes bounds the result cache when Config leaves it 0.
const DefaultResultCacheBytes = 32 << 20

// The result cache sits in front of the admission gate: a repeated identical
// request (same canonical shape, same projection generations) is answered
// from the cached Result without admitting to the worker pool at all — zero
// workers granted, zero morsels run. Because
// results are byte-identical at every parallelism level (the engine's core
// invariant), a cached response is indistinguishable from a fresh execution.
//
// An entry stores what its run returned: the rows the request's limit kept,
// beside the count and sums over all of them. The limit is no part of the
// key; whether an entry can answer a request is read off the entry (covers).
//
// Entries record the generation of every projection they read at the time
// the source run STARTED; InvalidateProjection bumps the generation, which
// both eagerly drops matching entries and lazily fails the generation check
// on lookup, so a bump between lookup and insert can never resurrect stale
// data.

// ResultCacheStats are the result cache's cumulative counters.
type ResultCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	Capacity      int64 `json:"capacity"`
}

// resultEntry is one cached response: the result plus the stats of the run
// that produced it (servable verbatim — wall time and worker count describe
// the original execution).
type resultEntry struct {
	key   string
	projs []string // projections the query read
	gens  []uint64 // generation of each at source-run start
	bytes int64

	outcome
}

// resultCache is a mutex-guarded byte-charged LRU of served responses, zero-row
// ones included, with per-projection generation invalidation.
type resultCache struct {
	mu       sync.Mutex
	capBytes int64
	lru      *cache.LRU[string, *resultEntry]
	gens     map[string]uint64
	stats    ResultCacheStats
}

func newResultCache(capBytes int64) *resultCache {
	return &resultCache{
		capBytes: capBytes,
		lru:      cache.New[string, *resultEntry](),
		gens:     make(map[string]uint64),
	}
}

// generations snapshots the current generation of each projection. Callers
// capture this BEFORE executing and pass it to put, so a bump during
// execution invalidates the insert rather than caching stale data.
func (c *resultCache) generations(projs []string) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	gens := make([]uint64, len(projs))
	for i, p := range projs {
		gens[i] = c.gens[p]
	}
	return gens
}

// covers reports whether the entry can answer a request for limit rows (0 =
// every row): it holds the whole result, or at least as many rows as asked
// for.
func (e *resultEntry) covers(limit int) bool {
	held := e.res.NumRows()
	return int64(held) == e.res.Total || (limit > 0 && held >= limit)
}

// get returns the cached entry for key if present, current and holding the
// limit rows asked for (0 = every row). An entry that holds too few rows is a
// miss; it stays until the re-run's put replaces it.
func (c *resultCache) get(key string, limit int) (*resultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Get(key)
	if ok && !c.currentLocked(e) {
		// Stale under a generation bump that raced the eager sweep.
		c.lru.Delete(key)
		c.stats.Invalidations++
		ok = false
	}
	if !ok || !e.covers(limit) {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	return e, true
}

// currentLocked reports whether every projection the entry read is still at
// the generation recorded when its source run started.
func (c *resultCache) currentLocked(e *resultEntry) bool {
	for i, p := range e.projs {
		if c.gens[p] != e.gens[i] {
			return false
		}
	}
	return true
}

// put inserts a response produced by a run that started at the given
// generations. Oversized entries and entries whose generations have moved on
// are dropped; an existing entry for the key is replaced.
func (c *resultCache) put(e *resultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.currentLocked(e) || e.bytes > c.capBytes {
		return // invalidated while the source run executed, or too big
	}
	c.lru.Put(e.key, e, e.bytes)
	c.stats.Evictions += int64(c.lru.Shrink(c.capBytes, nil))
}

// invalidate bumps proj's generation and eagerly drops every entry that read
// it (the generation check in get makes the sweep a byte-accounting courtesy,
// not a correctness requirement).
func (c *resultCache) invalidate(proj string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[proj]++
	reads := func(_ string, e *resultEntry) bool { return slices.Contains(e.projs, proj) }
	c.stats.Invalidations += int64(c.lru.DeleteFunc(reads))
}

func (c *resultCache) snapshot() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	st.Bytes = c.lru.Bytes()
	st.Capacity = c.capBytes
	return st
}

// resultBytes estimates what caching a run's outcome retains: every array its
// chunks reach at its capacity (8 bytes a cell, 24 a slice header in the chunk
// list and in each chunk), the aggregator behind an aggregation's rows
// (Stats.AggState: a shard exports its groups from it on a hit, and it is
// several times the size of the two emitted columns) and a fixed per-entry
// overhead for names and stats.
func resultBytes(key string, out outcome) int64 {
	const header = 24
	bytes := header*int64(cap(out.res.Chunks)) + int64(len(key)) + 256
	for _, ch := range out.res.Chunks {
		bytes += header * int64(cap(ch))
		for _, col := range ch {
			bytes += 8 * int64(cap(col))
		}
	}
	if out.sel != nil && out.sel.AggState != nil {
		bytes += out.sel.AggState.MemBytes()
	}
	return bytes
}
