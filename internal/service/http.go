package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"matstore"
	"matstore/internal/obs"
	"matstore/internal/operators"
	"matstore/internal/storage"
)

// TraceIDHeader carries the request's trace id: the coordinator stamps it on
// shard requests so a shard's span tree grafts into the coordinator's under
// one id, and every response echoes it for correlation.
const TraceIDHeader = "X-CS-Trace-Id"

// HTTP front-end: JSON endpoints over a Server. Every request runs through
// a fresh session and the admission gate.
//
//	POST /query   {projection, output, where, groupby, aggcol, agg,
//	               strategy, parallelism, limit}
//	POST /join    {left, right, leftkey, rightkey, where, leftout, rightout,
//	               rightstrategy, parallelism, limit}
//	POST /explain query body (join body when "right" is set) -> plan tree
//	GET  /stats   admission, worker and cache counters
//
// where is a list of "col<op>value" strings (ParseWhere syntax); /join
// accepts at most one, over the outer join key. strategy accepts the four
// strategy names or "advise" (the cost model picks); rightstrategy accepts
// the three right-side names or "advise" (the Section 4.3 terms pick).
// A /query or /join request that accepts partialContentType — a coordinator's
// fan-out — is answered in the column-major partial form of wire.go.

// QueryRequest is the /query (and selection /explain) body.
type QueryRequest struct {
	Projection  string   `json:"projection"`
	Output      []string `json:"output,omitempty"`
	Where       []string `json:"where,omitempty"`
	GroupBy     string   `json:"groupby,omitempty"`
	AggCol      string   `json:"aggcol,omitempty"`
	Agg         string   `json:"agg,omitempty"`
	Strategy    string   `json:"strategy,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Limit       int      `json:"limit,omitempty"`
	// Partial marks a scatter-gather shard request: an aggregating query
	// answers with the mergeable per-group statistics (groups) instead of
	// emitted rows, because emitted aggregate values do not merge across
	// shards (AVG loses its count). Selections are unaffected — their row
	// partials concatenate and their checksums add.
	Partial bool `json:"partial,omitempty"`
	// RowIDs marks a shard request over a key-partitioned projection: the
	// engine reads the hidden storage.RowIDColumn alongside the requested
	// outputs and ships each shown row's global row id in rowids (stripping
	// the column from columns/rows/checksum), so the coordinator can k-way
	// merge the shards' global-order subsequences back into global row order.
	RowIDs bool `json:"rowids,omitempty"`
	// Trace requests a span tree: the response's trace field carries the
	// request's full timing breakdown (admission, caches, per-plan-node
	// execution; through the coordinator, each shard's sub-tree).
	Trace bool `json:"trace,omitempty"`
}

// JoinRequest is the /join (and join /explain) body.
type JoinRequest struct {
	Left          string   `json:"left"`
	Right         string   `json:"right"`
	LeftKey       string   `json:"leftkey"`
	RightKey      string   `json:"rightkey"`
	Where         []string `json:"where,omitempty"`
	LeftOutput    []string `json:"leftout,omitempty"`
	RightOutput   []string `json:"rightout,omitempty"`
	RightStrategy string   `json:"rightstrategy,omitempty"`
	Parallelism   int      `json:"parallelism,omitempty"`
	Limit         int      `json:"limit,omitempty"`
	// RowIDs: as in QueryRequest, over the left (outer) projection — the
	// hidden row-id column rides the left output list through the probe.
	RowIDs bool `json:"rowids,omitempty"`
	// Trace: as in QueryRequest.
	Trace bool `json:"trace,omitempty"`
}

// QueryResponse is the /query and /join response.
type QueryResponse struct {
	Columns  []string  `json:"columns"`
	Rows     [][]int64 `json:"rows"`
	RowCount int       `json:"row_count"`
	Checksum int64     `json:"checksum"`
	Strategy string    `json:"strategy"`
	Wall     int64     `json:"wall_nanos"`
	Workers  int       `json:"workers"`
	Morsels  int       `json:"morsels"`
	Queued   int64     `json:"queued_nanos"`
	Session  int64     `json:"session"`
	// EstCostUS is the model estimate the admission grant sizer used.
	EstCostUS float64 `json:"est_cost_us"`
	// Cache reuse flags: the ci smoke greps result_cache_hit on a repeated
	// query and build_cache_hit on a repeated join.
	ResultCacheHit bool `json:"result_cache_hit"`
	PlanCacheHit   bool `json:"plan_cache_hit"`
	BuildCacheHit  bool `json:"build_cache_hit"`
	// Groups is a partial aggregation's exported per-group mergeable
	// statistics (set only for partial=true aggregating requests, which omit
	// rows); the coordinator absorbs every shard's groups and re-emits.
	Groups []operators.GroupStats `json:"groups,omitempty"`
	// RowIDs parallels Rows for rowids=true requests: each shown row's
	// global row id, the coordinator's merge key.
	RowIDs []int64 `json:"rowids,omitempty"`
	// Join-only counters.
	Partitions      int   `json:"partitions,omitempty"`
	Probes          int64 `json:"probes,omitempty"`
	BuildTuples     int64 `json:"build_tuples,omitempty"`
	DeferredFetches int64 `json:"deferred_fetches,omitempty"`
	// Memory-governance fields: the byte reservation the request held, and
	// whether the governor forced the join's build side into Grace spill mode
	// (the ci smoke greps "spilled":true under a tiny budget).
	ReservedBytes     int64 `json:"reserved_bytes,omitempty"`
	Spilled           bool  `json:"spilled,omitempty"`
	SpilledPartitions int   `json:"spilled_partitions,omitempty"`
	SpillBytes        int64 `json:"spill_bytes,omitempty"`
	// Trace is the request's span tree, present only when the request asked
	// for one — omitempty keeps untraced responses byte-identical to before
	// tracing existed.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// ExplainResponse is the /explain response.
type ExplainResponse struct {
	Strategy  string         `json:"strategy"`
	Tree      string         `json:"tree"`
	ModeledUS float64        `json:"modeled_total_us"`
	Wall      int64          `json:"wall_nanos"`
	Workers   int            `json:"workers"`
	RowCount  int            `json:"row_count"`
	Trace     *obs.TraceJSON `json:"trace,omitempty"`
}

const defaultRowLimit = 100

// resolveLimit applies the request limit convention: 0 = the default cap,
// negative = all rows. A coordinator resolves once, so shards always receive
// an explicit limit.
func resolveLimit(limit int) int {
	if limit == 0 {
		return defaultRowLimit
	}
	return limit
}

// rowCap is the executor's row cap for a request's limit: the rows the reply
// will show, every row (0) for a negative limit.
func rowCap(limit int) int { return max(resolveLimit(limit), 0) }

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := s.mux(s.handleQuery, s.handleJoin, s.handleExplain,
		func(w http.ResponseWriter, r *http.Request) { writeJSON(w, http.StatusOK, s.Stats()) })
	// Liveness: the process is up and serving HTTP — always 200.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthBody(s.start))
	})
	// Readiness: 503 while draining (SIGTERM received, connections finishing)
	// or under memory pressure (requests queued for byte reservations), so a
	// load balancer routes around this instance before requests pile up.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		draining, pressured := s.Draining(), s.MemoryPressured()
		status := http.StatusOK
		if draining || pressured {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]bool{
			"ready":           status == http.StatusOK,
			"draining":        draining,
			"memory_pressure": pressured,
		})
	})
	return mux
}

// statusWriter records the status an instrumented handler wrote so the
// middleware can label its metrics by outcome.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// mux returns the endpoint surface both front-ends serve — the four
// instrumented endpoints and /metrics — so clients (and the csserve client
// mode) are oblivious to whether they talk to one engine or a fleet. The
// caller adds its own /healthz and /readyz.
func (f *front) mux(query, join, explain, stats http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/query", f.instrument("query", query))
	mux.Handle("/join", f.instrument("join", join))
	mux.Handle("/explain", f.instrument("explain", explain))
	mux.Handle("/stats", f.instrument("stats", stats))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		f.reg.WritePrometheus(w)
	})
	return mux
}

// instrument wraps an endpoint handler to count requests and observe latency
// by endpoint × outcome.
func (f *front) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		outcome := outcomeOf(status)
		f.requests.With(endpoint, outcome).Inc()
		f.latency.With(endpoint, outcome).Observe(time.Since(start).Seconds())
	})
}

// healthBody is the enriched /healthz payload both serving processes return.
func healthBody(start time.Time) map[string]any {
	return map[string]any{
		"status":         "ok",
		"version":        obs.Version,
		"go":             runtime.Version(),
		"pid":            os.Getpid(),
		"uptime_seconds": time.Since(start).Seconds(),
	}
}

// ensureTraceID resolves the request's trace id — the propagated
// X-CS-Trace-Id header when present (a coordinator fan-out), a fresh random
// id otherwise — and echoes it on the response so every reply is
// correlatable even when no span tree was requested.
func ensureTraceID(w http.ResponseWriter, r *http.Request) string {
	tid := r.Header.Get(TraceIDHeader)
	if tid == "" {
		tid = obs.NewTraceID()
	}
	w.Header().Set(TraceIDHeader, tid)
	return tid
}

// rowIDs reports that the hidden row-id column rides this request's output
// list (aggregations have no rows to tag).
func (r QueryRequest) rowIDs() bool { return r.RowIDs && r.GroupBy == "" && r.AggCol == "" }

// resolveQuery parses a request body into the engine's query and strategy,
// consulting the cost model for "advise" (the advisor needs at least one
// filter; it falls back to LM-parallel otherwise, the paper's all-round
// default). Every error is the request's fault.
func (s *Server) resolveQuery(r QueryRequest) (q matstore.Query, strat matstore.Strategy, err error) {
	filters, err := parseWhereList(r.Where)
	if err != nil {
		return q, 0, err
	}
	q = matstore.Query{
		Output:      r.Output,
		Filters:     filters,
		GroupBy:     r.GroupBy,
		AggCol:      r.AggCol,
		Parallelism: r.Parallelism,
		Limit:       rowCap(r.Limit),
	}
	if r.Agg != "" {
		if q.Agg, err = matstore.ParseAggFunc(r.Agg); err != nil {
			return q, 0, err
		}
	}
	if r.rowIDs() {
		q.Output = append(append([]string{}, q.Output...), storage.RowIDColumn)
	}
	switch r.Strategy {
	case "", "advise":
		strat = matstore.LMParallel
		if r.Strategy == "advise" && len(q.Filters) > 0 {
			adv, err := s.db.AdviseParallel(r.Projection, q, s.cfg.WorkerBudget)
			if err != nil {
				return q, 0, err
			}
			strat = adv.Best
		}
	default:
		strat, err = matstore.ParseStrategy(r.Strategy)
	}
	return q, strat, err
}

// front is what the engine server and the coordinator share at the HTTP
// edge: the request metrics, tracing, the slow-query log and the error log.
type front struct {
	frontMetrics
	logger *obs.Logger // nil disables logging; all call sites are nil-safe
	// slowUS is the slow-query log threshold in µs (0 = disabled).
	slowUS int64
	// rootPrefix names the root spans: "" on an engine, "coordinator." on the
	// coordinator, so a grafted shard tree is told from the tree around it.
	rootPrefix string
}

// exchange is one request from the end of decoding to the reply: the trace,
// slow-log and error epilogue every query endpoint of both front-ends shares.
type exchange struct {
	f        *front
	w        http.ResponseWriter
	tid      string
	endpoint string
	shape    string     // the request, compactly, for the logs
	start    time.Time  // a coordinator's wall clock (an engine reports the executor's)
	tr       *obs.Trace // nil unless the request asked for a span tree
	partial  bool       // the caller accepts partialContentType
}

// begin opens an exchange for r, with a trace when the request asked for one.
func (f *front) begin(w http.ResponseWriter, r *http.Request, tid, endpoint, shape string, traced bool) exchange {
	x := exchange{f: f, w: w, tid: tid, endpoint: endpoint, shape: shape, start: time.Now(),
		partial: r.Header.Get("Accept") == partialContentType}
	if traced {
		f.traced.Inc()
		x.tr = obs.NewTrace(tid, f.rootPrefix+endpoint)
	}
	return x
}

// context attaches the exchange's trace, if any, to ctx.
func (x *exchange) context(ctx context.Context) context.Context {
	if x.tr == nil {
		return ctx
	}
	return obs.ContextWithSpan(ctx, x.tr.Root())
}

// fail logs a failed request and answers with the error's HTTP mapping.
func (x *exchange) fail(err error) {
	x.f.logger.Error(x.endpoint+" failed", "trace_id", x.tid, "endpoint", x.endpoint,
		"shape", x.shape, "error", err.Error())
	writeServiceError(x.w, err)
}

// reply closes the trace into *trace (the response's trace field), emits the
// structured slow-query record — query shape, trace summary and the caller's
// detail (an engine's modeled-vs-observed delta, a coordinator's shard
// count; asked for only when the record is written) — once wall time crosses
// the configured threshold, and sends resp: a query or join answer in the form
// the caller accepts, anything else as JSON.
func (x *exchange) reply(resp any, trace **obs.TraceJSON, wall time.Duration, detail func() []any) {
	if x.tr != nil {
		x.tr.Root().End()
		*trace = x.tr.JSON()
	}
	if th := x.f.slowUS; th > 0 && wall >= time.Duration(th)*time.Microsecond {
		x.f.slow.Inc()
		kv := append([]any{"trace_id", x.tid, "endpoint", x.endpoint, "shape", x.shape,
			"wall_us", wall.Microseconds()}, detail()...)
		if *trace != nil {
			kv = append(kv, "phases", spanSummary((*trace).Root))
		}
		x.f.logger.Info("slow query", kv...)
	}
	switch a, ok := resp.(*answer); {
	case ok && x.partial:
		a.writePartial(x.w)
	case ok:
		a.writeReply(x.w)
	default:
		writeJSON(x.w, http.StatusOK, resp)
	}
}

// modelDelta is an engine's slow-query detail: the modeled cost and how far
// the observed wall time is from it.
func modelDelta(wall time.Duration, modeledUS float64) func() []any {
	return func() []any {
		return []any{"modeled_us", int64(modeledUS), "delta_us", wall.Microseconds() - int64(modeledUS)}
	}
}

// spanSummary renders a compact trace summary: each top-level phase with
// its duration in µs.
func spanSummary(root *obs.SpanJSON) string {
	if root == nil {
		return ""
	}
	var b strings.Builder
	for i, c := range root.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%dus", c.Name, c.DurNS/1000)
	}
	return b.String()
}

// shape renders the request compactly for the slow-query log.
func (r QueryRequest) shape() string {
	sh := "select " + r.Projection
	if len(r.Where) > 0 {
		sh += " where " + strings.Join(r.Where, ",")
	}
	if r.GroupBy != "" {
		sh += " groupby " + r.GroupBy
	}
	if r.Agg != "" {
		sh += " agg " + r.Agg
	}
	return sh
}

func (r JoinRequest) shape() string {
	sh := "join " + r.Left + " x " + r.Right + " on " + r.LeftKey + "=" + r.RightKey
	if len(r.Where) > 0 {
		sh += " where " + strings.Join(r.Where, ",")
	}
	return sh
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tid := ensureTraceID(w, r)
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, strat, err := s.resolveQuery(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	x := s.begin(w, r, tid, "query", req.shape(), req.Trace)
	out, err := s.NewSession().Select(x.context(r.Context()), req.Projection, q, strat)
	if err != nil {
		x.fail(err)
		return
	}
	resp := baseResponse(out.Res, out.Stats, out.Info, req.Limit)
	resp.Strategy = out.Stats.Strategy.String()
	if req.Partial && out.Stats.AggState != nil {
		// Shard partial of an aggregation: ship the mergeable group
		// statistics, not the emitted rows.
		resp.Groups = out.Stats.AggState.ExportGroups()
		resp.n, resp.nullRows = 0, true
	}
	if req.rowIDs() {
		resp.stripRowIDs(out.Res, len(req.Output))
	}
	x.reply(resp, &resp.Trace, out.Stats.Wall, modelDelta(out.Stats.Wall, out.Info.EstCostUS))
}

// resolveJoin parses a join body into the engine's query and inner-table
// strategy, consulting the Section 4.3 cost terms for "advise".
func (s *Server) resolveJoin(r JoinRequest) (q matstore.JoinQuery, rs matstore.RightStrategy, err error) {
	q = matstore.JoinQuery{
		LeftKey:     r.LeftKey,
		LeftPred:    matstore.MatchAll,
		LeftOutput:  r.LeftOutput,
		RightKey:    r.RightKey,
		RightOutput: r.RightOutput,
		Parallelism: r.Parallelism,
		Limit:       rowCap(r.Limit),
	}
	filters, err := parseWhereList(r.Where)
	if err != nil {
		return q, 0, err
	}
	switch len(filters) {
	case 0:
	case 1:
		if filters[0].Col != q.LeftKey {
			return q, 0, fmt.Errorf("join where must predicate the outer join key %q, got %q", q.LeftKey, filters[0].Col)
		}
		q.LeftPred = filters[0].Pred
	default:
		return q, 0, fmt.Errorf("join accepts at most one where predicate, got %d", len(filters))
	}
	if r.RowIDs {
		q.LeftOutput = append(append([]string{}, q.LeftOutput...), storage.RowIDColumn)
	}
	switch r.RightStrategy {
	case "":
		rs = matstore.RightMaterialized
	case "advise":
		adv, err := s.db.AdviseJoin(r.Left, r.Right, q)
		if err != nil {
			return q, 0, err
		}
		rs = adv.Best
	default:
		rs, err = matstore.ParseRightStrategy(r.RightStrategy)
	}
	return q, rs, err
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	tid := ensureTraceID(w, r)
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, rs, err := s.resolveJoin(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	x := s.begin(w, r, tid, "join", req.shape(), req.Trace)
	out, err := s.NewSession().Join(x.context(r.Context()), req.Left, req.Right, q, rs)
	if err != nil {
		x.fail(err)
		return
	}
	js := out.Stats.Join
	resp := baseResponse(out.Res, &out.Stats.Stats, out.Info, req.Limit)
	resp.Strategy = out.Stats.RightStrategy.String()
	resp.Partitions = js.Partitions
	resp.Probes = js.LeftProbes
	resp.BuildTuples = js.RightBuildTuples
	resp.DeferredFetches = js.DeferredFetches
	resp.ReservedBytes = out.Info.ReservedBytes
	resp.Spilled = js.Spilled
	resp.SpilledPartitions = js.SpilledParts
	resp.SpillBytes = js.SpillBytes
	if req.RowIDs {
		resp.stripRowIDs(out.Res, len(req.LeftOutput))
	}
	wall := out.Stats.Stats.Wall
	x.reply(resp, &resp.Trace, wall, modelDelta(wall, out.Info.EstCostUS))
}

// explainCall runs one resolved explain request on a session.
type explainCall func(*Session, context.Context) (*matstore.Explanation, Info, error)

// resolveExplain parses an /explain body — one body shape for both: a join
// body when "right" is set, a query body otherwise — into its log shape,
// whether it asked for a trace, and the session call that runs it.
func (s *Server) resolveExplain(raw json.RawMessage) (shape string, traced bool, call explainCall, err error) {
	var probe struct {
		Right string `json:"right"`
		Trace bool   `json:"trace"`
	}
	if err = json.Unmarshal(raw, &probe); err != nil {
		return "", false, nil, err
	}
	if probe.Right != "" {
		var req JoinRequest
		if err = json.Unmarshal(raw, &req); err != nil {
			return "", false, nil, err
		}
		q, rs, err := s.resolveJoin(req)
		return req.shape(), probe.Trace, func(c *Session, ctx context.Context) (*matstore.Explanation, Info, error) {
			return c.ExplainJoin(ctx, req.Left, req.Right, q, rs)
		}, err
	}
	var req QueryRequest
	if err = json.Unmarshal(raw, &req); err != nil {
		return "", false, nil, err
	}
	q, strat, err := s.resolveQuery(req)
	return req.shape(), probe.Trace, func(c *Session, ctx context.Context) (*matstore.Explanation, Info, error) {
		return c.Explain(ctx, req.Projection, q, strat)
	}, err
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	tid := ensureTraceID(w, r)
	var raw json.RawMessage
	if !decodeBody(w, r, &raw) {
		return
	}
	shape, traced, explain, err := s.resolveExplain(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	x := s.begin(w, r, tid, "explain", shape, traced)
	ex, info, err := explain(s.NewSession(), x.context(r.Context()))
	if err != nil {
		x.fail(err)
		return
	}
	resp := ExplainResponse{
		Strategy:  ex.Strategy.String(),
		Tree:      ex.String(),
		ModeledUS: ex.Modeled.Total(),
		Wall:      ex.Stats.Wall.Nanoseconds(),
		Workers:   info.Workers,
		RowCount:  int(ex.Result.Total),
	}
	x.reply(resp, &resp.Trace, ex.Stats.Wall, modelDelta(ex.Stats.Wall, ex.Modeled.Total()))
}

// baseResponse renders a result as the reply every query endpoint shares: up
// to limit of the rows it holds (a run capped at this request's rowCap, or a
// cached one that kept at least as many), read from its chunks as they are,
// and the count and checksum it carries over every row the run produced.
func baseResponse(res *matstore.Result, stats *matstore.Stats, info Info, limit int) *answer {
	shown := res.NumRows()
	if limit = resolveLimit(limit); limit > 0 && shown > limit {
		shown = limit
	}
	return &answer{QueryResponse: QueryResponse{
		Columns:        res.Columns,
		RowCount:       int(res.Total),
		Checksum:       res.Checksum(),
		Wall:           stats.Wall.Nanoseconds(),
		Workers:        info.Workers,
		Morsels:        stats.Morsels,
		Queued:         info.Queued.Nanoseconds(),
		Session:        info.Session,
		EstCostUS:      info.EstCostUS,
		ResultCacheHit: info.ResultCacheHit,
		PlanCacheHit:   info.PlanCacheHit,
		BuildCacheHit:  info.BuildCacheHit,
	}, chunks: res.Chunks, n: shown, rowID: -1}
}

// stripRowIDs makes the hidden row-id column (at idx in the output list) the
// answer's row-id column: its values are sent as the row-id array, its name
// leaves the columns, and the checksum drops the column's total over ALL
// result rows — the checksum covers every matching row, not just the shown
// ones — so shard checksums still sum to the single-engine value.
func (a *answer) stripRowIDs(res *matstore.Result, idx int) {
	a.Checksum -= res.Sums[idx]
	a.Columns = slices.Delete(slices.Clone(a.Columns), idx, idx+1)
	a.rowID = idx
}

func parseWhereList(where []string) ([]matstore.Filter, error) {
	var out []matstore.Filter
	for _, s := range where {
		f, err := matstore.ParsePredicateExpr(s)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost && r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	// Echo the trace id (set on the response header before any error can
	// occur) so a failing request is still correlatable with server logs.
	if tid := w.Header().Get(TraceIDHeader); tid != "" {
		body["trace_id"] = tid
	}
	writeJSON(w, status, body)
}

// writeServiceError maps a request's error onto an HTTP status: request
// faults (RequestError: unknown projection/column, malformed shape) are 400,
// a cancelled or timed-out request context is 499 (the de-facto
// "client closed request" status), a governor shed is 503 with a Retry-After
// hint (the correct backpressure signal for load balancers and retrying
// clients), a coordinator's failed fan-out answers as the fan-out decided,
// and execution failures are 500 so monitoring and retry logic see a server
// fault.
func writeServiceError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var re *RequestError
	var he *httpError
	switch {
	case errors.As(err, &he):
		he.write(w)
		return
	case errors.As(err, &re):
		status = http.StatusBadRequest
	case errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = 499
	}
	writeError(w, status, err)
}
