package service

import (
	"strconv"
	"sync"

	"matstore"
	"matstore/internal/cache"
	"matstore/internal/plan"
)

// The plan cache skips BuildPlan/BuildJoinPlan for repeated query shapes: a
// plan is self-contained (columns resolved, chunk size captured at build
// time) and plan.Plan.Run is safe for concurrent callers (per-run partials,
// atomic node counters, a build mutex on the hash side),
// so one cached plan serves any number of concurrent sessions at any
// parallelism. Keys canonicalize the query shape; the executor's options are
// fixed per server, so they stay out of the key. Parallelism is a Run-time
// argument, not a plan property, so queries differing only in worker count
// share an entry.

// PlanCacheStats are the plan cache's cumulative counters.
type PlanCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// planCache is a mutex-guarded LRU of built plans, each charged 1, so its
// capacity is an entry count.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *cache.LRU[string, *plan.Plan]
	stats PlanCacheStats
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, lru: cache.New[string, *plan.Plan]()}
}

func (c *planCache) get(key string) (*plan.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pl, ok := c.lru.Get(key)
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return pl, ok
}

func (c *planCache) put(key string, pl *plan.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.lru.Get(key); ok {
		// A concurrent miss built the same plan; keep the existing entry so
		// in-flight runs and future hits share one.
		return
	}
	c.lru.Put(key, pl, 1)
	c.stats.Evictions += int64(c.lru.Shrink(int64(c.cap), nil, nil))
}

// clear drops every entry (projection invalidation is conservative: plans
// pin resolved column handles).
func (c *planCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru = cache.New[string, *plan.Plan]()
}

func (c *planCache) snapshot() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	st.Capacity = c.cap
	return st
}

// keyStr appends one user-supplied string length-prefixed, so names
// containing the key's own delimiters can never make two different request
// shapes collide on one entry (a collision would skip validation and serve
// the wrong cached plan).
func keyStr(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	b = append(b, s...)
	return append(b, ';')
}

// keyList appends a name list with its arity, length-prefixing each element.
func keyList(b []byte, items []string) []byte {
	b = strconv.AppendInt(b, int64(len(items)), 10)
	b = append(b, '[')
	for _, s := range items {
		b = keyStr(b, s)
	}
	return append(b, ']')
}

// keyPred appends a predicate as its operator and two bounds, then end.
func keyPred(b []byte, p matstore.Predicate, end byte) []byte {
	b = strconv.AppendInt(b, int64(p.Op), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, p.A, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, p.B, 10)
	return append(b, end)
}

// selectKey canonicalizes a selection/aggregation query shape. Filter order
// is semantically significant (it decides pipelined plan shape and fusion
// groups), so it is preserved, not sorted.
func selectKey(proj string, q matstore.Query, s matstore.Strategy) string {
	b := make([]byte, 0, 128)
	b = append(b, "s|"...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, '|')
	b = keyStr(b, proj)
	b = keyList(b, q.Output)
	b = keyStr(b, q.GroupBy)
	b = keyStr(b, q.AggCol)
	b = append(b, "fn="...)
	b = strconv.AppendInt(b, int64(q.Agg), 10)
	b = append(b, '|')
	for _, f := range q.Filters {
		b = keyStr(b, f.Col)
		b = keyPred(b, f.Pred, ';')
	}
	return string(b)
}

// joinKey canonicalizes a join query shape.
func joinKey(left, right string, q matstore.JoinQuery, rs matstore.RightStrategy) string {
	b := make([]byte, 0, 128)
	b = append(b, "j|"...)
	b = strconv.AppendInt(b, int64(rs), 10)
	b = append(b, '|')
	b = keyStr(b, left)
	b = keyStr(b, right)
	b = keyStr(b, q.LeftKey)
	b = keyPred(b, q.LeftPred, '|')
	b = keyList(b, q.LeftOutput)
	b = keyStr(b, q.RightKey)
	b = keyList(b, q.RightOutput)
	return string(b)
}
