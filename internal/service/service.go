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
//   - One LRU (internal/cache) is under every cache: the result cache and
//     its zero-row sibling (resultcache.go: repeated identical requests are
//     answered without admission at all, invalidated per projection by
//     generation bumps), the plan cache (plancache.go: repeated shapes skip
//     BuildPlan), the shared join-build cache and its on-disk demoted tier
//     (operators.BuildCache: partitioned hash sides shared across queries,
//     single-flight) and the buffer pool. Each owner keeps its lock and what
//     is its own; recency, byte charging and eviction are written once.
//   - One request path (Session.serve, below): result-cache lookup →
//     estimate → admit → plan cache → run → put. Select, Join, Explain and
//     ExplainJoin are shape adapters over it.
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
	"slices"
	"sync/atomic"
	"time"

	"matstore"
	"matstore/internal/buffer"
	"matstore/internal/core"
	"matstore/internal/obs"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/storage"
)

// DefaultBuildCacheBytes bounds the join-build cache when Config leaves it 0.
const DefaultBuildCacheBytes = 64 << 20

// DefaultPlanCacheEntries bounds the plan cache when Config leaves it 0.
const DefaultPlanCacheEntries = 256

// DefaultGrantSliceMicros is the modeled-µs-per-worker slice of cost-aware
// grant sizing when Config leaves it 0: a request modeled at N×slice µs asks
// for N workers (clamped to [1, budget]).
const DefaultGrantSliceMicros = 100

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
	// PlanCacheEntries bounds the plan cache (0 = the 256-entry default,
	// negative = cache disabled).
	PlanCacheEntries int
	// ResultCacheBytes bounds the served-response cache (0 = the 32 MiB
	// default, negative = cache disabled).
	ResultCacheBytes int64
	// ResultCacheMinCostUS is the cache's cost-aware admission threshold:
	// only responses whose modeled cost estimate is at least this many µs
	// are cached (0 = cache everything). Cheap queries re-execute faster
	// than their results amortize cache space and evictions.
	ResultCacheMinCostUS float64
	// GrantSliceMicros is the modeled cost (µs) one worker is expected to
	// absorb when sizing admission grants (0 = the 100 µs default, negative
	// = cost-aware sizing disabled; every grant uses the uniform fair share).
	GrantSliceMicros float64
	// MemoryBudgetBytes turns on byte governance: every join is admitted with
	// its predicted build bytes reserved, runs in Grace spill mode under a
	// smaller reservation when the estimate doesn't fit, queues when the
	// spill grant doesn't fit either, and is shed (HTTP 503) past the waiter
	// cap. 0 disables memory governance entirely.
	MemoryBudgetBytes int64
	// SpillDir is where spill-mode joins and demoted cache builds write temp
	// files ("" = the DB's .spill directory). Only used when
	// MemoryBudgetBytes > 0.
	SpillDir string
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

	gov      *governor
	spillDir string                // set when memory governance is on
	builds   *operators.BuildCache // nil when disabled
	plans    *planCache            // nil when disabled
	results  *resultCache          // nil when disabled

	sessions   atomic.Int64
	queries    atomic.Int64
	planBuilds atomic.Int64

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
	if cfg.PlanCacheEntries == 0 {
		cfg.PlanCacheEntries = DefaultPlanCacheEntries
	}
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = DefaultResultCacheBytes
	}
	if cfg.GrantSliceMicros == 0 {
		cfg.GrantSliceMicros = DefaultGrantSliceMicros
	}
	s := &Server{
		db:    db,
		exec:  db.Exec(),
		store: db.Storage(),
		cfg:   cfg,
		gov:   newGovernor(cfg.MaxConcurrent, cfg.WorkerBudget, cfg.GrantSliceMicros, cfg.MemoryBudgetBytes),
		start: time.Now(),
	}
	s.front = front{frontMetrics: newFrontMetrics(s.start), logger: cfg.Logger, slowUS: cfg.SlowQueryMicros}
	if cfg.BuildCacheBytes > 0 {
		s.builds = operators.NewBuildCache(cfg.BuildCacheBytes)
	}
	if cfg.PlanCacheEntries > 0 {
		s.plans = newPlanCache(cfg.PlanCacheEntries)
	}
	if cfg.ResultCacheBytes > 0 {
		s.results = newResultCache(cfg.ResultCacheBytes, cfg.ResultCacheMinCostUS)
	}
	if cfg.MemoryBudgetBytes > 0 {
		s.spillDir = cfg.SpillDir
		if s.spillDir == "" {
			s.spillDir = db.SpillDir()
		}
		if s.builds != nil {
			// Under memory governance, evicted warm builds demote to on-disk
			// hash entries instead of being discarded outright.
			s.builds.EnableDemotion(s.spillDir)
		}
	}
	registerServerMetrics(s)
	return s
}

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// InvalidateProjection marks a projection's data as changed: cached results
// over it and cached join builds of it are dropped by generation bumps, and
// the plan cache is cleared (plans pin resolved column handles, so
// invalidation is conservative).
func (s *Server) InvalidateProjection(name string) {
	if s.results != nil {
		s.results.invalidate(name)
	}
	if s.builds != nil {
		s.builds.Invalidate(name)
	}
	if s.plans != nil {
		s.plans.clear()
	}
}

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
	// PlanBuilds counts BuildPlan/BuildJoinPlan invocations; with the plan
	// cache on it lags Queries by exactly the hit count.
	PlanBuilds  int64                     `json:"plan_builds"`
	ResultCache ResultCacheStats          `json:"result_cache"`
	PlanCache   PlanCacheStats            `json:"plan_cache"`
	BuildCache  operators.BuildCacheStats `json:"build_cache"`
	Pool        buffer.Stats              `json:"buffer_pool"`
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
		PlanBuilds:    s.planBuilds.Load(),
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
	if s.plans != nil {
		st.PlanCache = s.plans.snapshot()
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
	// EstCostUS is the analytical model's total cost estimate the grant
	// sizer used (0 when unavailable).
	EstCostUS float64 `json:"est_cost_us"`
	// ResultCacheHit reports the request was answered entirely from the
	// result cache; PlanCacheHit and BuildCacheHit report shared-cache
	// reuse during execution.
	ResultCacheHit bool `json:"result_cache_hit"`
	PlanCacheHit   bool `json:"plan_cache_hit"`
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

// request is one request's shape on the serving path: what differs between
// a selection, a join and their explains.
type request struct {
	// want is the query's Parallelism: a ceiling on the granted worker share
	// (0 = take the full cost-sized share).
	want int
	// limit is the query's Limit: how many rows a cached result must hold to
	// answer this request (0 = every row).
	limit int
	// estimate returns the model's cost (0 when unavailable) and the
	// predicted working-set bytes the governor should reserve (0 for none).
	estimate func() (costUS float64, estBytes int64)
	// build constructs the plan on a plan-cache miss; its errors are the
	// request's fault. Nil for explains, which build their own fresh tree.
	build func() (*plan.Plan, error)
	// run executes under the grant; espan is the request's "execute" span
	// (nil when untraced).
	run func(ctx context.Context, pl *plan.Plan, g grant, espan *obs.Span) (outcome, error)
}

// serve is the one request path: result-cache lookup → estimate → admit →
// plan cache → run → put. key canonicalizes the query shape for the result
// and plan caches and projs are the projections it reads; an empty key
// bypasses both caches (explains: their per-node observed counters want a
// fresh tree). Cancelling ctx abandons the request at the admission gate,
// between plan phases or between morsels.
//
// key and projs travel beside rq, not in it, and nothing of rq is retained:
// that keeps the shape's three closures on the caller's stack, so a
// result-cache hit allocates nothing for a path it does not take.
func (c *Session) serve(ctx context.Context, key string, projs []string, rq request) (outcome, Info, error) {
	s := c.srv
	s.queries.Add(1)
	info := Info{Session: c.ID}
	span := obs.SpanFromContext(ctx)
	cached := s.results != nil && key != ""

	var gens []uint64
	var held []string // projs, copied for the entry: the caller's stays on its stack
	if cached {
		cspan := span.Child("result_cache.lookup")
		e, hit := s.results.get(key, rq.limit)
		cspan.SetAttr("hit", hit)
		cspan.End()
		if hit {
			info.ResultCacheHit = true
			return e.outcome, info, nil
		}
		held = slices.Clone(projs)
		gens = s.results.generations(held)
	}
	var estBytes int64
	info.EstCostUS, estBytes = rq.estimate()

	aspan := span.Child("admission")
	g, release, err := s.gov.admit(ctx, ask{want: rq.want, costUS: info.EstCostUS, estBytes: estBytes})
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

	var pl *plan.Plan
	if rq.build != nil {
		// Traced requests bypass the plan cache on BOTH sides (no get, no
		// put): the per-node Observed counters must describe exactly this
		// run, and a cached plan accumulates counters across every traced run
		// that touches it (the same reason Explain builds fresh trees).
		plans := s.plans
		if span != nil || key == "" {
			plans = nil
		}
		pspan := span.Child("plan.build")
		if plans != nil {
			pl, info.PlanCacheHit = plans.get(key)
		}
		if pl == nil {
			if pl, err = rq.build(); err != nil {
				return outcome{}, info, badRequest(err)
			}
			if plans != nil {
				plans.put(key, pl)
			}
		}
		pspan.SetAttr("cache_hit", info.PlanCacheHit)
		pspan.End()
		if err := ctx.Err(); err != nil {
			return outcome{}, info, err // cancelled between build and run: the grant releases unused
		}
	}
	espan := span.Child("execute")
	out, err := rq.run(ctx, pl, g, espan)
	espan.End()
	if err != nil {
		return outcome{}, info, err
	}
	if cached {
		s.results.put(&resultEntry{
			key: key, projs: held, gens: gens,
			bytes: resultBytes(key, out), costUS: info.EstCostUS, outcome: out,
		})
	}
	return out, info, nil
}

// runOptions are a served plan's run options: cancellable, and observed
// (with the model's per-node predictions annotated for the trace's
// modeled-vs-observed attributes) exactly when the request is traced.
func (s *Server) runOptions(ctx context.Context, pl *plan.Plan, espan *obs.Span, spill *operators.SpillConfig, limit int) plan.RunOptions {
	if espan != nil {
		consts := s.db.Constants()
		consts.AnnotatePlan(pl, true)
	}
	return plan.RunOptions{Ctx: ctx, Observe: espan != nil, Spill: spill, Limit: limit, Trace: espan}
}

// costUS is an estimate's total in µs, 0 when the model could not make one
// (the grant sizer then falls back to the fair share).
func costUS(est matstore.Cost, err error) float64 {
	if err != nil {
		return 0
	}
	return est.Total()
}

// Select runs a selection/aggregation through the result cache, admission
// control and the plan cache.
func (c *Session) Select(ctx context.Context, projection string, q matstore.Query, strat matstore.Strategy) (*SelectResult, error) {
	s := c.srv
	out, info, err := c.serve(ctx, selectKey(projection, q, strat), []string{projection}, request{
		want:     q.Parallelism,
		limit:    q.Limit,
		estimate: func() (float64, int64) { return costUS(s.db.EstimateSelectCost(projection, q, strat)), 0 },
		build: func() (*plan.Plan, error) {
			p, err := s.store.Projection(projection)
			if err != nil {
				return nil, err
			}
			s.planBuilds.Add(1)
			return s.exec.BuildPlan(p, q, strat)
		},
		run: func(ctx context.Context, pl *plan.Plan, g grant, espan *obs.Span) (outcome, error) {
			res, stats, err := s.exec.RunPlanWith(pl, strat, g.workers, s.runOptions(ctx, pl, espan, nil, q.Limit))
			return outcome{res: res, sel: stats}, err
		},
	})
	if err != nil {
		return nil, err
	}
	return &SelectResult{Res: out.res, Stats: out.sel, Info: info}, nil
}

// Join runs an equi-join through the result cache, admission control and
// both shared execution caches: the plan cache skips BuildJoinPlan for a
// repeated shape, and the build cache shares the partitioned hash side
// across queries over the same inner table. The predicted bytes of the build
// side are part of the one grant, held until the request finishes on every
// path out; a spill-mode grant runs the build as a Grace join under it.
func (c *Session) Join(ctx context.Context, left, right string, q matstore.JoinQuery, rs matstore.RightStrategy) (*JoinResult, error) {
	s := c.srv
	var estBytes int64
	out, info, err := c.serve(ctx, joinKey(left, right, q, rs), []string{left, right}, request{
		want:  q.Parallelism,
		limit: q.Limit,
		estimate: func() (float64, int64) {
			estBytes, _ = s.db.EstimateJoinMemory(right, q, rs)
			return costUS(s.db.EstimateJoinCost(left, right, q, rs)), estBytes
		},
		build: func() (*plan.Plan, error) {
			lp, err := s.store.Projection(left)
			if err != nil {
				return nil, err
			}
			rp, err := s.store.Projection(right)
			if err != nil {
				return nil, err
			}
			s.planBuilds.Add(1)
			pl, err := s.exec.BuildJoinPlan(lp, rp, q, rs)
			if err == nil && s.builds != nil {
				pl.Builds = s.builds
			}
			return pl, err
		},
		run: func(ctx context.Context, pl *plan.Plan, g grant, espan *obs.Span) (outcome, error) {
			var spill *operators.SpillConfig
			if g.spill {
				spill = &operators.SpillConfig{BudgetBytes: g.bytes, EstBytes: estBytes, Dir: s.spillDir}
			}
			res, stats, err := s.exec.RunJoinPlanWith(pl, g.workers, s.runOptions(ctx, pl, espan, spill, q.Limit))
			if err == nil && stats.Join.Spilled {
				s.spilledJoins.Add(1)
				s.spilledParts.Add(int64(stats.Join.SpilledParts))
				s.spillBytes.Add(stats.Join.SpillBytes)
			}
			return outcome{res: res, join: stats}, err
		},
	})
	if err != nil {
		return nil, err
	}
	if !info.ResultCacheHit {
		info.BuildCacheHit, info.Spilled = out.join.Join.BuildCacheHit, out.join.Join.Spilled
	}
	return &JoinResult{Res: out.res, Stats: out.join, Info: info}, nil
}

// Explain runs DB.Explain (selection) through admission control; the
// observed run executes at the granted parallelism.
func (c *Session) Explain(ctx context.Context, projection string, q matstore.Query, strat matstore.Strategy) (*matstore.Explanation, Info, error) {
	s := c.srv
	out, info, err := c.serve(ctx, "", nil, request{
		want:     q.Parallelism,
		estimate: func() (float64, int64) { return costUS(s.db.EstimateSelectCost(projection, q, strat)), 0 },
		run: func(_ context.Context, _ *plan.Plan, g grant, espan *obs.Span) (outcome, error) {
			p, err := s.store.Projection(projection)
			if err == nil {
				err = q.Validate(p)
			}
			if err != nil {
				return outcome{}, badRequest(err)
			}
			q.Parallelism = g.workers
			ex, err := s.db.ExplainTraced(projection, q, strat, espan)
			return outcome{ex: ex}, err
		},
	})
	return out.ex, info, err
}

// ExplainJoin runs DB.ExplainJoin through admission control. It asks for no
// bytes: an explained join always builds in memory.
func (c *Session) ExplainJoin(ctx context.Context, left, right string, q matstore.JoinQuery, rs matstore.RightStrategy) (*matstore.Explanation, Info, error) {
	s := c.srv
	out, info, err := c.serve(ctx, "", nil, request{
		want:     q.Parallelism,
		estimate: func() (float64, int64) { return costUS(s.db.EstimateJoinCost(left, right, q, rs)), 0 },
		run: func(_ context.Context, _ *plan.Plan, g grant, espan *obs.Span) (outcome, error) {
			for _, proj := range []string{left, right} {
				if _, err := s.store.Projection(proj); err != nil {
					return outcome{}, badRequest(err)
				}
			}
			q.Parallelism = g.workers
			ex, err := s.db.ExplainJoinTraced(left, right, q, rs, espan)
			return outcome{ex: ex}, err
		},
	})
	return out.ex, info, err
}
