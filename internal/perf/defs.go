package perf

// MetricDef names a metric of the benchmark. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end metric
	// may get worse before -compare calls it a regression (0 for per-layer
	// metrics, which are shown and never gated).
	Bound float64
}

// EndToEnd are the metrics a user of the system would see, measured with
// tracing off on every workload. fail_share is the sixth: it is expected to
// be 0, so it is compared by absolute difference (FailShareBound) and
// reaches the driver as the attempted and failed counts rather than as a
// ratio to a zero median.
var EndToEnd = []MetricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"mem_held_p95_mb", "MB", "lower", 0.20},
}

// FailShareBound is how far fail_share may rise, in absolute terms.
const FailShareBound = 0.001

// PerLayer are the metrics of single layers, from the traced run. Every
// traced run emits all of them; one that has no meaning on a workload (a
// probe reported elsewhere, a coordinator span on a workload without a
// coordinator) is emitted as 0 and left out of the printed table.
var PerLayer = []MetricDef{
	{"kernels.filter_ns_per_value", "ns", "lower", 0},

	{"encoding.filter_plain_ns_per_value", "ns", "lower", 0},
	{"encoding.filter_rle_ns_per_value", "ns", "lower", 0},
	{"encoding.filter_bv_ns_per_value", "ns", "lower", 0},

	{"storage.gather_ns_per_pos", "ns", "lower", 0},
	{"storage.gather_unordered_ns_per_pos", "ns", "lower", 0},
	{"storage.window_us_per_block", "us", "lower", 0},
	{"storage.pool_hit_ratio", "ratio", "higher", 0},
	{"storage.blocks_read_per_op", "count", "lower", 0},
	{"storage.open_s", "s", "lower", 0},

	{"positions.and_ns_per_kpos", "ns", "lower", 0},

	{"plan.scan_us_per_op", "us", "lower", 0},
	{"plan.extract_us_per_op", "us", "lower", 0},
	{"plan.and_us_per_op", "us", "lower", 0},
	{"plan.agg_us_per_op", "us", "lower", 0},
	{"plan.join_build_us_per_op", "us", "lower", 0},
	{"plan.join_probe_us_per_op", "us", "lower", 0},
	{"plan.merge_us_per_op", "us", "lower", 0},
	{"plan.unattributed_share", "ratio", "lower", 0},
	{"plan.morsels_per_op", "count", "lower", 0},
	{"plan.workers_per_op", "count", "higher", 0},

	{"core.plan_build_select_us", "us", "lower", 0},
	{"core.plan_build_join_us", "us", "lower", 0},
	{"core.em_pipelined_p50_ms", "ms", "lower", 0},
	{"core.em_parallel_p50_ms", "ms", "lower", 0},
	{"core.lm_pipelined_p50_ms", "ms", "lower", 0},
	{"core.lm_parallel_p50_ms", "ms", "lower", 0},
	{"core.tuples_constructed_per_op", "count", "lower", 0},

	{"operators.build_w1_ns_per_tuple", "ns", "lower", 0},
	{"operators.build_wN_ns_per_tuple", "ns", "lower", 0},
	{"operators.probe_ns_per_key", "ns", "lower", 0},
	{"operators.agg_ns_per_tuple", "ns", "lower", 0},
	{"operators.right_materialized_p50_ms", "ms", "lower", 0},
	{"operators.right_multicolumn_p50_ms", "ms", "lower", 0},
	{"operators.right_singlecolumn_p50_ms", "ms", "lower", 0},
	{"operators.spill_join_p50_ms", "ms", "lower", 0},
	{"operators.spill_bytes_per_op", "bytes", "lower", 0},
	{"operators.deferred_fetches_per_op", "count", "lower", 0},

	{"model.error_ratio_p50", "ratio", "lower", 0},
	{"model.error_ratio_p95", "ratio", "lower", 0},
	{"model.advise_regret_p50", "ratio", "lower", 0},
	{"model.crossover_ok", "count", "higher", 0},
	{"model.advise_us", "us", "lower", 0},

	{"memory.reserve_us_per_op", "us", "lower", 0},
	{"memory.peak_reserved_mb", "MB", "lower", 0},
	{"memory.shed_total", "count", "lower", 0},

	{"service.wire_us_per_op", "us", "lower", 0},
	{"service.result_cache_lookup_us_per_op", "us", "lower", 0},
	{"service.admission_us_per_op", "us", "lower", 0},
	{"service.admission_queued_share", "ratio", "lower", 0},
	{"service.plan_build_us_per_op", "us", "lower", 0},
	{"service.execute_us_per_op", "us", "lower", 0},
	{"service.unattributed_us_per_op", "us", "lower", 0},
	{"service.result_cache_hit_ratio", "ratio", "higher", 0},
	{"service.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"service.build_cache_hit_ratio", "ratio", "higher", 0},
	{"service.result_cache_evictions_per_op", "count", "lower", 0},
	{"service.grant_workers_mean", "count", "higher", 0},
	{"service.response_kb_per_op", "kB", "lower", 0},
	{"service.session_hit_us", "us", "lower", 0},
	{"service.warmup_s", "s", "lower", 0},

	{"coordinator.fanout_us_per_op", "us", "lower", 0},
	{"coordinator.merge_us_per_op", "us", "lower", 0},
	{"coordinator.merge_concat_us", "us", "lower", 0},
	{"coordinator.merge_agg_statistics_us", "us", "lower", 0},
	{"coordinator.merge_rowid_kway_us", "us", "lower", 0},
	{"coordinator.merge_finalized_agg_us", "us", "lower", 0},
	{"coordinator.overhead_us_per_op", "us", "lower", 0},
	{"coordinator.straggler_ratio", "ratio", "lower", 0},
	{"coordinator.shard_requests_per_op", "count", "lower", 0},
	{"coordinator.pruned_shards_per_op", "count", "higher", 0},

	{"tpch.generate_s", "s", "lower", 0},
	{"process.alloc_kb_per_op", "kB", "lower", 0},
	{"process.gc_cpu_share", "ratio", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "lower", 0},
	{"obs.attributed_share", "ratio", "higher", 0},
	{"host.speed_factor", "ratio", "lower", 0},
}

// ExactCounts are per-layer counts the program makes that must repeat
// exactly from run to run; -compare flags any difference at all.
var ExactCounts = []string{"core.tuples_constructed_per_op", "coordinator.shard_requests_per_op"}
