package service

import (
	"sync"

	"matstore/internal/cache"
)

// DefaultResultCacheBytes bounds the result cache when Config leaves it 0.
const DefaultResultCacheBytes = 32 << 20

// The result cache sits in front of the admission gate: a repeated identical
// request (same canonical shape) is answered from the cached Result without
// admitting to the worker pool at all — zero workers granted, zero morsels
// run. Because results are byte-identical at every parallelism level (the
// engine's core invariant), a cached response is indistinguishable from a
// fresh execution.
//
// An entry stores what its run returned: the rows the request's limit kept,
// beside the count and sums over all of them. The limit is no part of the
// key; whether an entry can answer a request is read off the entry (covers).
//
// A served database is read-only — nothing rewrites a projection under a
// running server — so an entry stays valid until it is evicted; serving
// regenerated data means restarting the server.

// ResultCacheStats are the result cache's cumulative counters.
type ResultCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity"`
}

// resultEntry is one cached response: the result plus the stats of the run
// that produced it (servable verbatim — wall time and worker count describe
// the original execution).
type resultEntry struct {
	key   string
	bytes int64

	outcome
}

// resultCache is a mutex-guarded byte-charged LRU of served responses, zero-row
// ones included.
type resultCache struct {
	mu       sync.Mutex
	capBytes int64
	lru      *cache.LRU[string, *resultEntry]
	stats    ResultCacheStats
}

func newResultCache(capBytes int64) *resultCache {
	return &resultCache{capBytes: capBytes, lru: cache.New[string, *resultEntry]()}
}

// covers reports whether the entry can answer a request for limit rows (0 =
// every row): it holds the whole result, or at least as many rows as asked
// for.
func (e *resultEntry) covers(limit int) bool {
	held := e.res.NumRows()
	return int64(held) == e.res.Total || (limit > 0 && held >= limit)
}

// get returns the cached entry for key if present and holding the limit rows
// asked for (0 = every row). An entry that holds too few rows is a miss; it
// stays until the re-run's put replaces it.
func (c *resultCache) get(key string, limit int) (*resultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Get(key)
	if !ok || !e.covers(limit) {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	return e, true
}

// put inserts a served response. An entry larger than the whole cache is
// dropped; an existing entry for the key is replaced.
func (c *resultCache) put(e *resultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.bytes > c.capBytes {
		return
	}
	c.lru.Put(e.key, e, e.bytes)
	c.stats.Evictions += int64(c.lru.Shrink(c.capBytes, nil))
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
