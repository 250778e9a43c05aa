package service

import (
	"fmt"
	"strings"
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
func keyStr(b *strings.Builder, s string) {
	fmt.Fprintf(b, "%d:%s;", len(s), s)
}

// keyList appends a name list with its arity, length-prefixing each element.
func keyList(b *strings.Builder, items []string) {
	fmt.Fprintf(b, "%d[", len(items))
	for _, s := range items {
		keyStr(b, s)
	}
	b.WriteString("]")
}

// selectKey canonicalizes a selection/aggregation query shape. Filter order
// is semantically significant (it decides pipelined plan shape and fusion
// groups), so it is preserved, not sorted.
func selectKey(proj string, q matstore.Query, s matstore.Strategy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "s|%d|", s)
	keyStr(&b, proj)
	keyList(&b, q.Output)
	keyStr(&b, q.GroupBy)
	keyStr(&b, q.AggCol)
	fmt.Fprintf(&b, "fn=%d|", q.Agg)
	for _, f := range q.Filters {
		keyStr(&b, f.Col)
		fmt.Fprintf(&b, "%d %d %d;", f.Pred.Op, f.Pred.A, f.Pred.B)
	}
	return b.String()
}

// joinKey canonicalizes a join query shape.
func joinKey(left, right string, q matstore.JoinQuery, rs matstore.RightStrategy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "j|%d|", rs)
	keyStr(&b, left)
	keyStr(&b, right)
	keyStr(&b, q.LeftKey)
	fmt.Fprintf(&b, "%d %d %d|", q.LeftPred.Op, q.LeftPred.A, q.LeftPred.B)
	keyList(&b, q.LeftOutput)
	keyStr(&b, q.RightKey)
	keyList(&b, q.RightOutput)
	return b.String()
}
