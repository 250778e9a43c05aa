package service

import (
	"os"
	"runtime"
	"strconv"
	"time"

	"matstore/internal/obs"
)

// Prometheus-text metrics for the serving stack, over the hand-rolled
// internal/obs registry. Two instrumentation styles, chosen per signal:
//
//   - Live instruments (counters/histograms observed inline) for
//     distributions no snapshot can reconstruct: request latency by
//     endpoint × outcome, admission queue time, grant widths, shard
//     fan-out latency.
//   - Scrape-time collectors derived from the existing Stats() snapshots
//     for everything the subsystems already count (cache hits/misses/
//     evictions, memory reservations and sheds, spill bytes, shard
//     request totals) — no double accounting, no second code path to
//     keep consistent.
//
// All serving series share the cs_ prefix (column store).

// frontMetrics is the metric set both serving processes expose: the
// registry, the request counters and latency histograms the HTTP instrument
// wrapper observes, and the trace and slow-query counters.
type frontMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec   // cs_requests_total{endpoint,outcome}
	latency  *obs.HistogramVec // cs_request_seconds{endpoint,outcome}
	traced   *obs.Counter      // cs_traced_requests_total
	slow     *obs.Counter      // cs_slow_queries_total
}

func newFrontMetrics(start time.Time) frontMetrics {
	reg := obs.NewRegistry()
	registerProcessMetrics(reg, start)
	return frontMetrics{
		reg: reg,
		requests: reg.NewCounterVec("cs_requests_total",
			"HTTP requests served, by endpoint and outcome (ok/client_error/server_error/shed/cancelled).",
			"endpoint", "outcome"),
		latency: reg.NewHistogramVec("cs_request_seconds",
			"HTTP request latency in seconds, by endpoint and outcome.",
			obs.LatencyBuckets(), "endpoint", "outcome"),
		traced: reg.NewCounter("cs_traced_requests_total",
			"Requests that carried \"trace\": true and returned a span tree."),
		slow: reg.NewCounter("cs_slow_queries_total",
			"Requests whose wall time crossed the slow-query threshold."),
	}
}

// registerServerMetrics adds an engine server's own series: the two
// session-path instruments (unlabeled: observed on the hot path) and the
// scrape-time collectors.
func registerServerMetrics(s *Server) {
	reg := s.reg
	s.queueWait = reg.NewHistogram("cs_admission_queue_seconds",
		"Time requests spent blocked at the admission gate (waiting for bytes, a slot or a worker).",
		obs.LatencyBuckets())
	s.grants = reg.NewHistogram("cs_grant_workers",
		"Granted morsel parallelism per admitted request.",
		obs.ExpBuckets(1, 2, 8))

	// Everything below derives from the Stats() snapshot at scrape time.
	reg.NewGaugeFunc("cs_queries", "Total queries accepted by the service layer.",
		func() float64 { return float64(s.queries.Load()) })
	reg.NewGaugeFunc("cs_sessions", "Total sessions opened.",
		func() float64 { return float64(s.sessions.Load()) })
	reg.NewCollector("cs_cache_events_total",
		"Cache activity by cache (result/plan/build) and event (hit/miss/eviction/invalidation).",
		"counter", []string{"cache", "event"},
		func(emit func(values []string, v float64)) {
			st := s.Stats()
			emit([]string{"result", "hit"}, float64(st.ResultCache.Hits))
			emit([]string{"result", "miss"}, float64(st.ResultCache.Misses))
			emit([]string{"result", "eviction"}, float64(st.ResultCache.Evictions))
			emit([]string{"result", "invalidation"}, float64(st.ResultCache.Invalidations))
			emit([]string{"plan", "hit"}, float64(st.PlanCache.Hits))
			emit([]string{"plan", "miss"}, float64(st.PlanCache.Misses))
			emit([]string{"plan", "eviction"}, float64(st.PlanCache.Evictions))
			emit([]string{"build", "hit"}, float64(st.BuildCache.Hits))
			emit([]string{"build", "miss"}, float64(st.BuildCache.Misses))
			emit([]string{"build", "eviction"}, float64(st.BuildCache.Evictions))
			emit([]string{"build", "invalidation"}, float64(st.BuildCache.Invalidations))
		})
	reg.NewCollector("cs_admission",
		"Admission-gate counters by stage.", "counter", []string{"event"},
		func(emit func(values []string, v float64)) {
			a := s.gov.snapshot()
			emit([]string{"admitted"}, float64(a.Admitted))
			emit([]string{"completed"}, float64(a.Completed))
			emit([]string{"aborted"}, float64(a.Aborted))
			emit([]string{"queued_admission"}, float64(a.QueuedAdmission))
			emit([]string{"queued_workers"}, float64(a.QueuedWorkers))
		})
	reg.NewGaugeFunc("cs_workers_in_use", "Morsel workers currently granted.",
		func() float64 { return float64(s.gov.snapshot().WorkersInUse) })
	if s.cfg.MemoryBudgetBytes > 0 {
		reg.NewGaugeFunc("cs_memory_budget_bytes", "Configured memory-governor byte budget.",
			func() float64 { return float64(s.cfg.MemoryBudgetBytes) })
		reg.NewGaugeFunc("cs_memory_reserved_bytes", "Bytes currently reserved against the memory budget.",
			func() float64 { return float64(s.gov.memory().Reserved) })
		reg.NewGaugeFunc("cs_memory_sheds_total", "Requests shed by the memory governor.",
			func() float64 { return float64(s.gov.memory().Shed) })
		reg.NewGaugeFunc("cs_memory_wait_seconds_total", "Cumulative time requests spent queued for memory.",
			func() float64 { return float64(s.gov.memory().WaitNanos) / 1e9 })
		reg.NewGaugeFunc("cs_spilled_joins_total", "Joins forced into Grace spill mode.",
			func() float64 { return float64(s.spilledJoins.Load()) })
		reg.NewGaugeFunc("cs_spill_bytes_total", "Bytes written to spill files by governed joins.",
			func() float64 { return float64(s.spillBytes.Load()) })
	}
}

// registerCoordMetrics adds the coordinator's own series.
func registerCoordMetrics(c *Coordinator) {
	reg := c.reg
	// Pre-resolved per shard index (With on the hot path would build a key
	// string per shard call).
	shardLat := reg.NewHistogramVec("cs_shard_request_seconds",
		"Per-shard fan-out request latency in seconds.", obs.LatencyBuckets(), "shard")
	for k := range c.shards {
		c.shardLatency = append(c.shardLatency, shardLat.With(strconv.Itoa(k)))
	}
	reg.NewGaugeFunc("cs_coordinator_queries", "Queries accepted by the coordinator.",
		func() float64 { return float64(c.queries.Load()) })
	reg.NewCollector("cs_shard_requests",
		"Shard HTTP requests issued by the coordinator, by outcome (total/error).",
		"counter", []string{"outcome"},
		func(emit func(values []string, v float64)) {
			emit([]string{"total"}, float64(c.shardRequests.Load()))
			emit([]string{"error"}, float64(c.shardErrors.Load()))
		})
	reg.NewCollector("cs_coordinator_routing",
		"Coordinator routing decisions by kind.", "counter", []string{"kind"},
		func(emit func(values []string, v float64)) {
			emit([]string{"fanned_out"}, float64(c.fannedOut.Load()))
			emit([]string{"routed_single"}, float64(c.routedSingle.Load()))
			emit([]string{"pruned_shards"}, float64(c.prunedShards.Load()))
			emit([]string{"agg_merges"}, float64(c.aggMerges.Load()))
			emit([]string{"copartitioned_joins"}, float64(c.copartJoins.Load()))
			emit([]string{"finalized_aggs"}, float64(c.finalizedAggs.Load()))
			emit([]string{"rowid_merges"}, float64(c.rowidMerges.Load()))
		})
}

// registerProcessMetrics adds the build/uptime series every serving process
// exposes.
func registerProcessMetrics(reg *obs.Registry, start time.Time) {
	reg.NewGaugeFunc("cs_uptime_seconds", "Seconds since the process started serving.",
		func() float64 { return time.Since(start).Seconds() })
	reg.NewCollector("cs_build_info",
		"Build metadata: constant 1 labeled with version and Go runtime.",
		"gauge", []string{"version", "go"},
		func(emit func(values []string, v float64)) {
			emit([]string{obs.Version, runtime.Version()}, 1)
		})
	pid := float64(os.Getpid())
	reg.NewGaugeFunc("cs_process_pid", "Serving process id.", func() float64 { return pid })
}

// outcomeOf buckets an HTTP status for the request metrics' outcome label.
func outcomeOf(status int) string {
	switch {
	case status == 499:
		return "cancelled"
	case status == 503:
		return "shed"
	case status >= 500:
		return "server_error"
	case status >= 400:
		return "client_error"
	default:
		return "ok"
	}
}
