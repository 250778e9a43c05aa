package service

import (
	"slices"
	"sync"

	"matstore/internal/cache"
)

// DefaultResultCacheBytes bounds the result cache when Config leaves it 0.
const DefaultResultCacheBytes = 32 << 20

// The result cache sits in front of the plan cache and the admission gate:
// a repeated identical request (same canonical shape, same projection
// generations) is answered from the cached Result without admitting to the
// worker pool at all — zero workers granted, zero morsels run. Because
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
	// CostSkips counts responses refused admission because their modeled
	// cost fell below the configured threshold: re-executing a cheap query
	// costs less than the cache space (and the evictions) its result would
	// consume, so only expensive results are worth remembering.
	CostSkips int64 `json:"cost_skips"`
	// Negative-cache counters: zero-row responses kept in their own small
	// byte-accounted LRU so heavy result traffic can't evict them (and their
	// tiny entries can't be used to churn the main cache).
	NegativeHits    int64 `json:"negative_hits"`
	NegativeEntries int   `json:"negative_entries"`
	NegativeBytes   int64 `json:"negative_bytes"`
}

// resultEntry is one cached response: the result plus the stats of the run
// that produced it (servable verbatim — wall time and worker count describe
// the original execution).
type resultEntry struct {
	key   string
	projs []string // projections the query read
	gens  []uint64 // generation of each at source-run start
	bytes int64
	// costUS is the analytical model's total cost estimate for the source
	// run (0 when unavailable) — the admission signal for the cost
	// threshold.
	costUS float64

	outcome
}

// resultCache is a mutex-guarded pair of byte-charged LRUs of served
// responses with per-projection generation invalidation. Zero-row responses
// live in the negative tier under its own (much smaller) byte budget: a query
// shape that matches nothing is the cheapest possible answer to remember, and
// isolating those entries means bulk result traffic can never evict them.
type resultCache struct {
	mu               sync.Mutex
	capBytes, negCap int64
	// minCostUS is the admission threshold: responses whose modeled cost is
	// below it are not cached (0 admits everything). Entries with no cost
	// estimate are always admitted — an unknown cost is no evidence the
	// query is cheap.
	minCostUS float64
	main, neg *cache.LRU[string, *resultEntry]
	gens      map[string]uint64
	stats     ResultCacheStats
}

func newResultCache(capBytes int64, minCostUS float64) *resultCache {
	return &resultCache{
		capBytes:  capBytes,
		negCap:    max(capBytes/8, 4096),
		minCostUS: minCostUS,
		main:      cache.New[string, *resultEntry](),
		neg:       cache.New[string, *resultEntry](),
		gens:      make(map[string]uint64),
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
// limit rows asked for (0 = every row), consulting the main tier then the
// negative (zero-row) tier. An entry that holds too few rows is a miss; it
// stays until the re-run's put replaces it.
func (c *resultCache) get(key string, limit int) (*resultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tier := range [...]*cache.LRU[string, *resultEntry]{c.main, c.neg} {
		e, ok := tier.Get(key)
		if !ok {
			continue
		}
		if !c.currentLocked(e) {
			// Stale under a generation bump that raced the eager sweep.
			tier.Delete(key)
			c.stats.Invalidations++
			break
		}
		if !e.covers(limit) {
			break
		}
		c.stats.Hits++
		if tier == c.neg {
			c.stats.NegativeHits++
		}
		return e, true
	}
	c.stats.Misses++
	return nil, false
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
// generations, zero-row responses into the negative tier. Oversized entries
// and entries whose generations have moved on are dropped; an existing entry
// for the key is replaced.
func (c *resultCache) put(e *resultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.currentLocked(e) {
		return // invalidated while the source run executed
	}
	if c.minCostUS > 0 && e.costUS > 0 && e.costUS < c.minCostUS {
		c.stats.CostSkips++
		return
	}
	tier, capBytes := c.main, c.capBytes
	if e.res != nil && e.res.NumRows() == 0 {
		tier, capBytes = c.neg, c.negCap
	}
	if e.bytes > capBytes {
		return
	}
	tier.Put(e.key, e, e.bytes)
	c.stats.Evictions += int64(tier.Shrink(capBytes, nil, nil))
}

// invalidate bumps proj's generation and eagerly drops every entry that read
// it (the generation check in get makes the sweep a byte-accounting courtesy,
// not a correctness requirement).
func (c *resultCache) invalidate(proj string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[proj]++
	reads := func(_ string, e *resultEntry) bool { return slices.Contains(e.projs, proj) }
	c.stats.Invalidations += int64(c.main.DeleteFunc(reads) + c.neg.DeleteFunc(reads))
}

func (c *resultCache) snapshot() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.main.Len()
	st.Bytes = c.main.Bytes()
	st.Capacity = c.capBytes
	st.NegativeEntries = c.neg.Len()
	st.NegativeBytes = c.neg.Bytes()
	return st
}

// resultBytes estimates what caching a run's outcome retains: 8 bytes per
// cell, the aggregator behind an aggregation's rows (Stats.AggState: a shard
// exports its groups from it on a hit, and it is several times the size of
// the two emitted columns) and a fixed per-entry overhead for headers, names
// and stats.
func resultBytes(key string, out outcome) int64 {
	cells := int64(0)
	for _, col := range out.res.Cols {
		cells += int64(cap(col))
	}
	bytes := 8*cells + int64(len(key)) + 256
	if out.sel != nil && out.sel.AggState != nil {
		bytes += out.sel.AggState.MemBytes()
	}
	return bytes
}
