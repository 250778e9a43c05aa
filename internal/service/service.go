// Package service is the concurrent query-serving subsystem layered over
// the matstore engine: it turns the one-query-at-a-time executor of the
// paper reproduction into a server that runs many queries against one DB,
// one buffer pool and one global worker budget at once.
//
// One of each, because each is the same mechanism wherever it appears:
//
//   - One governor (admission.go) grants every request its bytes, its
//     admission slot and its morsel workers together, from one queue under
//     one lock: at most MaxConcurrent requests in flight, the sum of worker
//     grants within WorkerBudget, reserved bytes within MemoryBudgetBytes.
//     Worker grants are sized from the analytical model's cost estimate (big
//     scans wide, point lookups narrow); a join whose predicted build side
//     does not fit is granted a bounded slice and runs in Grace spill mode;
//     a request that would have to queue for bytes behind too many others is
//     shed (503). Waits are context-aware: a cancelled request leaves the
//     queue at once, holding nothing.
//   - One LRU (internal/cache) is under every cache, one tier each: the
//     result cache (resultcache.go: repeated identical requests are answered
//     without admission at all), the shared join-build cache
//     (operators.BuildCache: partitioned hash sides shared across queries,
//     single-flight; an evicted build is dropped and rebuilt on its next
//     miss) and the buffer pool. Each owner keeps its lock and what is its
//     own; recency, byte charging and eviction are written once. A served
//     database is read-only, so no cache tracks a projection's version:
//     serving regenerated data means restarting the server.
//   - One request path (Session.serve, below): result-cache lookup → build
//     the request's candidate plans, price each once (its cost and a join's
//     build-side bytes, one walk) and pick the cheapest → admit on that price
//     → run → put. A named strategy is one candidate; an advised request is
//     every strategy, its own cached shape, so a hit builds and prices
//     nothing. The one chooser (model.Constants.Choose) is the library
//     advisors' too, and the tree it picks is the tree that is admitted,
//     explained and run; no plan outlives its request. Select, Join, Explain
//     and ExplainJoin are shape adapters over it: an explain is its query's
//     request, run observed.
//   - The front-ends (http.go, cmd/csserve; coord_*.go for the
//     scatter-gather coordinator): HTTP JSON endpoints /query, /join,
//     /explain and /stats.
//
// Sharing caches and derating parallelism are pure execution choices — the
// paper's core invariant — so every response is byte-identical to serial
// single-query execution; the concurrent differential suite locks that in.
package service

import (
	"context"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"matstore"
	"matstore/internal/buffer"
	"matstore/internal/core"
	"matstore/internal/model"
	"matstore/internal/obs"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/storage"
)

// DefaultBuildCacheBytes bounds the join-build cache when Config leaves it 0.
const DefaultBuildCacheBytes = 64 << 20

// Config tunes a Server.
type Config struct {
	// MaxConcurrent is the admission limit: at most this many requests
	// execute at once, the rest queue. 0 derives 2× the worker budget
	// (enough queueing to keep workers saturated without unbounded pile-up).
	MaxConcurrent int
	// WorkerBudget is the global morsel-worker budget divided across
	// in-flight queries (0 = one per CPU).
	WorkerBudget int
	// BuildCacheBytes bounds the shared join-build cache (0 = the 64 MiB
	// default, negative = cache disabled).
	BuildCacheBytes int64
	// ResultCacheBytes bounds the served-response cache (0 = the 32 MiB
	// default, negative = cache disabled).
	ResultCacheBytes int64
	// MemoryBudgetBytes turns on byte governance: every join is admitted with
	// its predicted build bytes reserved, runs in Grace spill mode under a
	// smaller reservation when the estimate doesn't fit, queues when the
	// spill grant doesn't fit either, and is shed (HTTP 503) past the waiter
	// cap. 0 disables memory governance entirely.
	MemoryBudgetBytes int64
	// Logger receives structured JSON log lines (slow queries, request
	// errors). Nil disables logging; all call sites are nil-safe.
	Logger *obs.Logger
	// SlowQueryMicros is the slow-query log threshold: a request whose wall
	// time reaches it is logged with its query shape, trace summary and
	// modeled-vs-observed delta. 0 disables the slow-query log.
	SlowQueryMicros int64
}

// Server serves concurrent queries against one matstore.DB.
type Server struct {
	front // request metrics, tracing, the slow-query and error logs

	db    *matstore.DB
	exec  *core.Executor
	store *storage.DB
	cfg   Config

	gov     *governor
	builds  *operators.BuildCache // nil when disabled
	results *resultCache          // nil when disabled

	sessions atomic.Int64
	queries  atomic.Int64

	draining     atomic.Bool
	spilledJoins atomic.Int64
	spilledParts atomic.Int64
	spillBytes   atomic.Int64

	start     time.Time
	queueWait *obs.Histogram // cs_admission_queue_seconds
	grants    *obs.Histogram // cs_grant_workers
}

// New wraps an open DB in a serving layer.
func New(db *matstore.DB, cfg Config) *Server {
	// Resolve every default before cfg is captured, so Config() reports the
	// configuration actually in effect.
	if cfg.WorkerBudget <= 0 {
		cfg.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * cfg.WorkerBudget
	}
	if cfg.BuildCacheBytes == 0 {
		cfg.BuildCacheBytes = DefaultBuildCacheBytes
	}
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = DefaultResultCacheBytes
	}
	s := &Server{
		db:    db,
		exec:  db.Exec(),
		store: db.Storage(),
		cfg:   cfg,
		gov:   newGovernor(cfg.MaxConcurrent, cfg.WorkerBudget, cfg.MemoryBudgetBytes),
		start: time.Now(),
	}
	s.front = front{frontMetrics: newFrontMetrics(s.start), logger: cfg.Logger, slowUS: cfg.SlowQueryMicros}
	if cfg.BuildCacheBytes > 0 {
		s.builds = operators.NewBuildCache(cfg.BuildCacheBytes)
	}
	if cfg.ResultCacheBytes > 0 {
		s.results = newResultCache(cfg.ResultCacheBytes)
	}
	registerServerMetrics(s)
	return s
}

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// MarkDraining flips /readyz to not-ready so load balancers stop routing new
// work here; in-flight and already-queued requests still complete. Called by
// the serving binary on SIGTERM before http.Server.Shutdown.
func (s *Server) MarkDraining() { s.draining.Store(true) }

// Draining reports whether MarkDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// MemoryPressured reports whether requests are queued for memory right now.
func (s *Server) MemoryPressured() bool { return s.gov.pressured() }

// Stats is the /stats snapshot: admission, worker and cache counters.
type Stats struct {
	// Process identity: version, runtime, pid and serving uptime.
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	PID           int     `json:"pid"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// EndpointRequests counts served HTTP requests per endpoint (all
	// outcomes summed).
	EndpointRequests map[string]int64 `json:"endpoint_requests,omitempty"`
	Sessions         int64            `json:"sessions"`
	Queries          int64            `json:"queries"`
	Admission        AdmissionStats   `json:"admission"`
	Memory           MemoryStats      `json:"memory"`
	ResultCache      ResultCacheStats `json:"result_cache"`
	// PlanCache always reads zero and is no part of /stats: no plan outlives
	// the request that built it. It stays for readers that still compute a
	// plan-cache hit ratio.
	PlanCache  struct{ Hits, Misses int64 } `json:"-"`
	BuildCache operators.BuildCacheStats    `json:"build_cache"`
	Pool       buffer.Stats                 `json:"buffer_pool"`
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Version:       obs.Version,
		GoVersion:     runtime.Version(),
		PID:           os.Getpid(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Sessions:      s.sessions.Load(),
		Queries:       s.queries.Load(),
		Admission:     s.gov.snapshot(),
		Pool:          s.db.PoolStats(),
	}
	reqs := map[string]int64{}
	for _, sm := range s.requests.Snapshot() {
		if len(sm.Labels) > 0 {
			reqs[sm.Labels[0].Value] += int64(sm.Value)
		}
	}
	if len(reqs) > 0 {
		st.EndpointRequests = reqs
	}
	if s.cfg.MemoryBudgetBytes > 0 {
		st.Memory = s.gov.memory()
		st.Memory.SpilledJoins = s.spilledJoins.Load()
		st.Memory.SpilledPartitions = s.spilledParts.Load()
		st.Memory.SpillBytes = s.spillBytes.Load()
	}
	if s.results != nil {
		st.ResultCache = s.results.snapshot()
	}
	if s.builds != nil {
		st.BuildCache = s.builds.Stats()
	}
	return st
}

// RequestError marks a failure attributable to the request itself — unknown
// projection or column, malformed query shape — rather than the server. The
// HTTP layer maps it to 400 Bad Request; execution failures stay 500.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// badRequest wraps a non-nil error as a RequestError.
func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return &RequestError{Err: err}
}

// Session is one client's handle on the server; all request methods go
// through admission control. Sessions are safe for concurrent use and cheap
// to create (the HTTP front-end makes one per request).
type Session struct {
	srv *Server
	// ID numbers the session (diagnostics only).
	ID int64
}

// NewSession opens a session.
func (s *Server) NewSession() *Session {
	return &Session{srv: s, ID: s.sessions.Add(1)}
}

// Info describes how the service executed one request.
type Info struct {
	Session int64 `json:"session"`
	// Workers is the granted (derated) morsel parallelism (0 when the
	// request was served from the result cache without admission).
	Workers int `json:"workers"`
	// Queued is the time spent blocked at the admission gate (waiting for
	// bytes, a slot or a worker).
	Queued time.Duration `json:"queued_nanos"`
	// EstCostUS is the price of the plan the request ran — the analytical
	// model's serial total over that tree, warm pool — which sized its worker
	// grant (0 for a result-cache hit).
	EstCostUS float64 `json:"est_cost_us"`
	// ResultCacheHit reports the request was answered entirely from the
	// result cache; BuildCacheHit reports a shared join build reused during
	// execution.
	ResultCacheHit bool `json:"result_cache_hit"`
	BuildCacheHit  bool `json:"build_cache_hit"`
	// ReservedBytes is the memory reservation the request held while running
	// (0 with memory governance off); Spilled reports the governor forced the
	// join's build side into Grace spill mode.
	ReservedBytes int64 `json:"reserved_bytes,omitempty"`
	Spilled       bool  `json:"spilled,omitempty"`
}

// SelectResult is a served selection/aggregation response.
type SelectResult struct {
	Res   *matstore.Result
	Stats *matstore.Stats
	Info  Info
}

// JoinResult is a served join response.
type JoinResult struct {
	Res   *matstore.Result
	Stats *matstore.JoinStats
	Info  Info
}

// outcome is what a request's run produced: a result with its selection or
// join stats, or an explanation.
type outcome struct {
	res  *matstore.Result
	sel  *matstore.Stats
	join *matstore.JoinStats
	ex   *matstore.Explanation
}

// joinStats is the join statistics of a run, served or explained (nil for a
// selection).
func (o outcome) joinStats() *matstore.JoinStats {
	if o.ex != nil {
		return o.ex.JoinStats
	}
	return o.join
}

// request is one request's shape on the serving path: what differs between
// a selection, a join and their explains.
type request struct {
	// want is the query's Parallelism: a ceiling on the granted worker share
	// (0 = take the full cost-sized share).
	want int
	// limit is the query's Limit: how many rows a cached result must hold to
	// answer this request (0 = every row).
	limit int
	// n is the number of candidate plans (one for a named strategy, one per
	// strategy for an advised request); build(i) constructs candidate i, and
	// its errors are the request's fault.
	n     int
	build func(i int) (*plan.Plan, error)
	// run executes the picked, priced plan under the grant; espan is the
	// request's "execute" span (nil when untraced).
	run func(ctx context.Context, pp priced, g grant, espan *obs.Span) (outcome, error)
}

// priced is the plan a request picked, with its one price: which candidate
// it is, the constants it was priced under and the walk's estimate — the
// cost the grant sizer reads and the build-side bytes the governor reserves.
// Its nodes carry their modeled shares, for EXPLAIN and for the trace's
// modeled-vs-observed attributes.
type priced struct {
	pick   int
	pl     *plan.Plan
	consts matstore.Constants
	est    model.Estimate
}

// serve is the one request path: result-cache lookup → build the candidate
// plans, price each once and pick the cheapest (model.Constants.Choose, at
// the worker budget) → admit on that price → run → put. key canonicalizes the
// query shape — its candidate list included — for the result cache; an empty
// key bypasses the cache (explains). A request none of whose candidates
// builds answers before admission, holding nothing. Cancelling ctx abandons
// the request at the admission gate, between plan phases or between morsels.
//
// key travels beside rq, not in it, and nothing of rq is retained: that keeps
// the shape's two closures on the caller's stack, so a result-cache hit
// allocates nothing for a path it does not take.
func (c *Session) serve(ctx context.Context, key string, rq request) (outcome, Info, error) {
	s := c.srv
	s.queries.Add(1)
	info := Info{Session: c.ID}
	span := obs.SpanFromContext(ctx)
	cached := s.results != nil && key != ""

	if cached {
		cspan := span.Child("result_cache.lookup")
		e, hit := s.results.get(key, rq.limit)
		cspan.SetAttr("hit", hit)
		cspan.End()
		if hit {
			info.ResultCacheHit = true
			return e.outcome, info, nil
		}
	}

	pspan := span.Child("plan.build")
	pp := priced{consts: s.db.Constants()}
	pick, plans, ests, err := pp.consts.Choose(rq.n, rq.build, true, s.cfg.WorkerBudget)
	pspan.End()
	if err != nil {
		return outcome{}, info, badRequest(err)
	}
	pp.pick, pp.pl, pp.est = pick, plans[pick], ests[pick]
	info.EstCostUS = pp.est.Total()
	estBytes := pp.est.BuildBytes

	aspan := span.Child("admission")
	g, release, err := s.gov.admit(ctx, ask{want: rq.want, priceUS: info.EstCostUS, estBytes: estBytes})
	aspan.End()
	if err != nil {
		return outcome{}, info, err
	}
	defer release()
	info.Workers, info.Queued, info.ReservedBytes = g.workers, g.queued(), g.bytes
	aspan.SetAttr("grant", g.workers)
	aspan.SetAttr("queued_ns", info.Queued.Nanoseconds())
	if estBytes > 0 {
		aspan.SetAttr("est_bytes", estBytes)
		aspan.SetAttr("reserved_bytes", g.bytes)
		aspan.SetAttr("spill_mode", g.spill)
	}
	// Both instruments are unlabeled (pre-resolved): two allocation-free
	// atomic observations.
	s.queueWait.Observe(info.Queued.Seconds())
	s.grants.Observe(float64(g.workers))

	espan := span.Child("execute")
	out, err := rq.run(ctx, pp, g, espan)
	espan.End()
	if err != nil {
		return outcome{}, info, err
	}
	if js := out.joinStats(); js != nil {
		info.BuildCacheHit, info.Spilled = js.Join.BuildCacheHit, js.Join.Spilled
		if js.Join.Spilled {
			s.spilledJoins.Add(1)
			s.spilledParts.Add(int64(js.Join.SpilledParts))
			s.spillBytes.Add(js.Join.SpillBytes)
		}
	}
	if cached {
		s.results.put(&resultEntry{key: key, bytes: resultBytes(key, out), outcome: out})
	}
	return out, info, nil
}

// runOptions are a served plan's run options: cancellable, capped at limit
// rows, observed exactly when the request is traced, and under a spill-mode
// grant a Grace join whose resident share the grant's bytes bound.
func runOptions(ctx context.Context, pp priced, g grant, espan *obs.Span, limit int) plan.RunOptions {
	opt := plan.RunOptions{Ctx: ctx, Observe: espan != nil, Limit: limit, Trace: espan}
	if g.spill {
		opt.Spill = &operators.SpillConfig{BudgetBytes: g.bytes, EstBytes: pp.est.BuildBytes}
	}
	return opt
}

// selectPlan builds the plan strat runs for q over projection.
func (s *Server) selectPlan(projection string, q matstore.Query, strat matstore.Strategy) (*plan.Plan, error) {
	p, err := s.store.Projection(projection)
	if err != nil {
		return nil, err
	}
	return s.exec.BuildPlan(p, q, strat)
}

// joinPlan builds the plan of the join left ⋈ right under rs, its build side
// routed through the shared build cache.
func (s *Server) joinPlan(left, right string, q matstore.JoinQuery, rs matstore.RightStrategy) (*plan.Plan, error) {
	lp, err := s.store.Projection(left)
	if err != nil {
		return nil, err
	}
	rp, err := s.store.Projection(right)
	if err != nil {
		return nil, err
	}
	pl, err := s.exec.BuildJoinPlan(lp, rp, q, rs)
	if err == nil && s.builds != nil {
		pl.Builds = s.builds
	}
	return pl, err
}

// Select runs a selection/aggregation through the result cache and admission
// control under the cheapest of the candidate strategies: one names the
// strategy, AdviseOrder lets the model pick.
func (c *Session) Select(ctx context.Context, projection string, q matstore.Query, strats ...matstore.Strategy) (*SelectResult, error) {
	s := c.srv
	out, info, err := c.serve(ctx, selectKey(projection, q, strats...), request{
		want:  q.Parallelism,
		limit: q.Limit,
		n:     len(strats),
		build: func(i int) (*plan.Plan, error) { return s.selectPlan(projection, q, strats[i]) },
		run: func(ctx context.Context, pp priced, g grant, espan *obs.Span) (outcome, error) {
			res, stats, err := s.exec.RunPlanWith(pp.pl, strats[pp.pick], g.workers, runOptions(ctx, pp, g, espan, q.Limit))
			return outcome{res: res, sel: stats}, err
		},
	})
	if err != nil {
		return nil, err
	}
	return &SelectResult{Res: out.res, Stats: out.sel, Info: info}, nil
}

// Join runs an equi-join through the result cache, admission control and the
// shared build cache, which shares the partitioned hash side across queries
// over the same inner table, under the cheapest of the candidate inner-table
// strategies (one names it, JoinStrategies lets the model pick). The plan's
// predicted build-side bytes are part of the one grant, held until the
// request finishes on every path out; a spill-mode grant runs the build as a
// Grace join under it.
func (c *Session) Join(ctx context.Context, left, right string, q matstore.JoinQuery, rss ...matstore.RightStrategy) (*JoinResult, error) {
	s := c.srv
	out, info, err := c.serve(ctx, joinKey(left, right, q, rss...), request{
		want:  q.Parallelism,
		limit: q.Limit,
		n:     len(rss),
		build: func(i int) (*plan.Plan, error) { return s.joinPlan(left, right, q, rss[i]) },
		run: func(ctx context.Context, pp priced, g grant, espan *obs.Span) (outcome, error) {
			res, stats, err := s.exec.RunJoinPlanWith(pp.pl, g.workers, runOptions(ctx, pp, g, espan, q.Limit))
			return outcome{res: res, join: stats}, err
		},
	})
	if err != nil {
		return nil, err
	}
	return &JoinResult{Res: out.res, Stats: out.join, Info: info}, nil
}

// Explain is Select run observed: the same candidates, pick, price and
// grant, through DB.ExplainPlan instead of the result cache.
func (c *Session) Explain(ctx context.Context, projection string, q matstore.Query, strats ...matstore.Strategy) (*matstore.Explanation, Info, error) {
	s := c.srv
	out, info, err := c.serve(ctx, "", request{
		want:  q.Parallelism,
		n:     len(strats),
		build: func(i int) (*plan.Plan, error) { return s.selectPlan(projection, q, strats[i]) },
		run: func(ctx context.Context, pp priced, g grant, espan *obs.Span) (outcome, error) {
			ex, err := s.db.ExplainPlan(pp.pl, strats[pp.pick], pp.consts, pp.est.Cost, g.workers, runOptions(ctx, pp, g, espan, q.Limit))
			return outcome{ex: ex}, err
		},
	})
	return out.ex, info, err
}

// ExplainJoin is Join run observed: the same candidates, pick, price and
// grant — its build-side bytes reserved, a Grace build when the grant is
// short, counted in /stats like any spilled join — through DB.ExplainPlan
// instead of the result cache.
func (c *Session) ExplainJoin(ctx context.Context, left, right string, q matstore.JoinQuery, rss ...matstore.RightStrategy) (*matstore.Explanation, Info, error) {
	s := c.srv
	out, info, err := c.serve(ctx, "", request{
		want:  q.Parallelism,
		n:     len(rss),
		build: func(i int) (*plan.Plan, error) { return s.joinPlan(left, right, q, rss[i]) },
		run: func(ctx context.Context, pp priced, g grant, espan *obs.Span) (outcome, error) {
			ex, err := s.db.ExplainPlan(pp.pl, 0, pp.consts, pp.est.Cost, g.workers, runOptions(ctx, pp, g, espan, q.Limit))
			return outcome{ex: ex}, err
		},
	})
	return out.ex, info, err
}
