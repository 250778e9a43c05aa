package perf

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"strings"

	"matstore"
	"matstore/internal/service"
)

// counters is a snapshot of the counters the program and the runtime keep,
// taken around a window; layer ratios come from differences of two.
type counters struct {
	svc   service.Stats            // the engine's /stats (shard totals behind a coordinator)
	coord service.CoordinatorStats // coord_mixed only
	pool  struct{ hits, misses, reads int64 }

	allocBytes      uint64
	gcCPU, totalCPU float64
}

func (e *env) counters() (counters, error) {
	var c counters
	switch {
	case e.workload == CoordMixed:
		if err := e.getJSON("/stats", &c.coord); err != nil {
			return c, err
		}
		// The coordinator sums its shards' /stats documents field by field;
		// read the sum back through the engine's own type.
		raw, err := json.Marshal(c.coord.ShardTotals)
		if err != nil {
			return c, err
		}
		if err := json.Unmarshal(raw, &c.svc); err != nil {
			return c, err
		}
	case served(e.workload):
		if err := e.getJSON("/stats", &c.svc); err != nil {
			return c, err
		}
	}
	pool := c.svc.Pool
	if !served(e.workload) {
		pool = e.db.PoolStats()
	}
	c.pool.hits, c.pool.misses, c.pool.reads = pool.Hits, pool.Misses, pool.Reads

	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	c.allocBytes = s[0].Value.Uint64()
	c.gcCPU, c.totalCPU = s[1].Value.Float64(), s[2].Value.Float64()
	return c, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nodeLayer maps a plan-node span (named by the node's label) to the
// plan.*_us_per_op metric its self time belongs to.
func nodeLayer(name string) string {
	for _, m := range []struct{ prefix, layer string }{
		{"DS1 ", "scan"}, {"DS2 ", "scan"}, {"SPC ", "scan"}, {"DS3+pred", "scan"}, {"ALL positions", "scan"},
		{"DS3 extract", "extract"}, {"DS4 ", "extract"}, {"MERGE", "extract"}, {"PROJECT", "extract"},
		{"AND ", "and"}, {"AGG ", "agg"}, {"JOINBUILD", "join_build"}, {"JOINPROBE", "join_probe"},
	} {
		if strings.HasPrefix(name, m.prefix) {
			return m.layer
		}
	}
	return ""
}

// layerSums accumulates, over the span trees of a traced window, the time
// each layer accounts for. Durations are nanoseconds.
type layerSums struct {
	children map[int][]*Span

	clientWall  int64 // Σ op roots
	serverWall  int64 // Σ outermost program span per op
	unattrWall  int64 // wall no span below the op root explains, along the critical path
	byPhase     map[string]int64
	byNode      map[string]int64 // plan.*: node self time by layer
	execWall    int64            // Σ execute / explain spans
	execUnattr  int64            // of which neither a phase nor a node covers
	engineSelf  int64            // Σ engine root − its children
	morselSpans int
	morsels     float64
	workers     float64
	admissions  int
	queued      int
	grants      float64

	// Coordinator.
	fanouts     int
	overhead    int64 // Σ coordinator root − slowest shard sub-tree
	straggler   float64
	mergeByKind map[string][]float64 // µs per merge, by kind
}

func isEngineRoot(name string) bool { return name == "query" || name == "join" }

func isExec(name string) bool { return name == "execute" || name == "explain" }

// walk visits a span's sub-tree. critical is false below the shards of a
// fan-out that did not finish last: their work counts towards the layers'
// totals, but the reply did not wait for it, so the wall time they leave
// unexplained is not the op's.
func (a *layerSums) walk(s *Span, critical bool) {
	kids := a.children[s.ID]
	self := SelfTime(s, kids)
	unexplained := false
	switch {
	case s.Node:
		if layer := nodeLayer(s.Name); layer != "" {
			a.byNode[layer] += s.AccumNS
		} else {
			// A node kind no plan.* metric claims: the wall it covers is time
			// the layer table does not explain.
			a.execUnattr += s.Dur()
			if critical {
				a.unattrWall += s.Dur()
			}
		}
	case s.Name == "op", strings.HasPrefix(s.Name, "coordinator."):
		unexplained = true
	case isEngineRoot(s.Name):
		a.engineSelf += self
		unexplained = true
	case isExec(s.Name):
		a.execWall += s.Dur()
		a.execUnattr += self
		unexplained = true
		if s.Name == "execute" {
			a.byPhase[s.Name] += s.Dur()
		}
	case s.Name == "morsels":
		a.execUnattr += self
		unexplained = true
		a.morselSpans++
		w, _ := s.Attrs["workers"].(float64)
		m, _ := s.Attrs["morsels"].(float64)
		if m < w {
			w = m // a worker without a morsel never runs
		}
		a.morsels += m
		a.workers += w
	case s.Name == "admission":
		a.byPhase[s.Name] += s.Dur()
		a.admissions++
		if q, _ := s.Attrs["queued_ns"].(float64); q > 0 {
			a.queued++
		}
		g, _ := s.Attrs["grant"].(float64)
		a.grants += g
	case s.Name == "merge":
		kind, _ := s.Attrs["kind"].(string)
		if kind == "" {
			a.byPhase["plan.merge"] += s.Dur() // the executor's partial merge
		} else {
			a.byPhase["coordinator.merge"] += s.Dur()
			a.mergeByKind[kind] = append(a.mergeByKind[kind], float64(s.Dur())/1e3)
		}
	default:
		a.byPhase[s.Name] += s.Dur()
	}
	if unexplained && critical {
		a.unattrWall += self
	}

	if s.Name == "fanout" && len(kids) > 0 {
		slowest := kids[0]
		var sum int64
		for _, k := range kids {
			sum += k.Dur()
			if k.Dur() > slowest.Dur() {
				slowest = k
			}
		}
		a.fanouts++
		a.straggler += ratio(float64(slowest.Dur()), float64(sum)/float64(len(kids)))
		for _, k := range kids {
			a.walk(k, critical && k == slowest)
		}
		return
	}
	for _, k := range kids {
		a.walk(k, critical)
	}
}

// slowestEngine returns the longest engine root below s (0 if none).
func (a *layerSums) slowestEngine(s *Span) int64 {
	if isEngineRoot(s.Name) {
		return s.Dur()
	}
	var longest int64
	for _, k := range a.children[s.ID] {
		if d := a.slowestEngine(k); d > longest {
			longest = d
		}
	}
	return longest
}

func sumLayers(rec *Recorder) *layerSums {
	a := &layerSums{children: rec.Children(), byPhase: map[string]int64{},
		byNode: map[string]int64{}, mergeByKind: map[string][]float64{}}
	for _, s := range rec.Spans {
		if s.Parent >= 0 {
			continue
		}
		a.clientWall += s.Dur()
		// The outermost span the program returned: below http.roundtrip on
		// the served workloads, directly below the root in process.
		server := s
		for _, k := range a.children[s.ID] {
			if k.Name == "http.roundtrip" {
				server = k
			}
		}
		for _, k := range a.children[server.ID] {
			if isEngineRoot(k.Name) || isExec(k.Name) || strings.HasPrefix(k.Name, "coordinator.") {
				a.serverWall += k.Dur()
				if strings.HasPrefix(k.Name, "coordinator.") {
					a.overhead += k.Dur() - a.slowestEngine(k)
				}
			}
		}
		a.walk(s, true)
	}
	return a
}

// Expected winners of the Figure 11/12 panels at the low and the high end of
// the selectivity sweep, by strategy family, as the paper reports them: late
// materialization wins at low selectivity everywhere; at high selectivity
// early materialization catches up on a selection over uncompressed or
// bit-vector LINENUM (tuple construction dominates and LM pays for its
// position handling), while RLE, and the aggregation, which shrinks the
// output, stay with LM.
var paperWinners = map[string][2]string{ // panel -> {low, high}
	panel("linenum", false):     {"lm", "em"},
	panel("linenum_rle", false): {"lm", "lm"},
	panel("linenum_bv", false):  {"lm", "em"},
	panel("linenum", true):      {"lm", "lm"},
	panel("linenum_rle", true):  {"lm", "lm"},
	panel("linenum_bv", true):   {"lm", "lm"},
}

func panel(enc string, agg bool) string {
	if agg {
		return enc + "/agg"
	}
	return enc + "/sel"
}

// modelMetrics derives the cost-model metrics of paper_select: from the
// traced window, how far each node's modeled time is from its observed time;
// from the untraced one, whose latencies carry no tracing overhead, how much
// slower the advisor's pick is than the fastest strategy at each sweep point,
// and how many panels keep the paper's winners.
func modelMetrics(db *matstore.DB, traced, plain []sample, set func(string, float64, int)) error {
	consts := db.Constants()
	var errRatios []float64
	for _, s := range traced {
		if s.out.err != nil || s.out.ex == nil {
			continue
		}
		for _, o := range s.out.ex.Observations() {
			modeled := o.Features[0]*consts.BIC + o.Features[1]*consts.TICTUP +
				o.Features[2]*consts.TICCOL + o.Features[3]*consts.FC
			if modeled <= 0 || o.ObservedUS <= 0 {
				continue
			}
			r := o.ObservedUS / modeled
			if r < 1 {
				r = 1 / r
			}
			errRatios = append(errRatios, r)
		}
	}
	lat := map[string]map[string][]float64{} // point -> strategy -> ms
	reqs := map[string]*Op{}
	for _, s := range plain {
		if s.out.err != nil {
			continue
		}
		if lat[s.op.Point] == nil {
			lat[s.op.Point] = map[string][]float64{}
		}
		lat[s.op.Point][s.op.Class] = append(lat[s.op.Point][s.op.Class], float64(s.out.lat.Nanoseconds())/1e6)
		reqs[s.op.Point] = s.op
	}
	if len(errRatios) > 0 {
		set("model.error_ratio_p50", Median(errRatios), len(errRatios))
		if p95, err := Percentile(errRatios, 0.95); err == nil {
			set("model.error_ratio_p95", p95, len(errRatios))
		}
	}

	var regrets []float64
	winners := map[string]string{} // point -> fastest strategy
	for point, byStrat := range lat {
		best, bestMS := "", 0.0
		for strat, ms := range byStrat {
			if m := Median(ms); best == "" || m < bestMS {
				best, bestMS = strat, m
			}
		}
		winners[point] = best
		q, _, _, err := selectQuery(reqs[point].Query)
		if err != nil {
			return err
		}
		adv, err := db.Advise(reqs[point].Query.Projection, q)
		if err != nil {
			return err
		}
		picked := strings.ToLower(adv.Best.String())
		if ms, ok := byStrat[picked]; ok && bestMS > 0 {
			regrets = append(regrets, Median(ms)/bestMS)
		}
	}
	if len(regrets) > 0 {
		set("model.advise_regret_p50", Median(regrets), len(regrets))
	}

	lo, hi := selectSelectivities[0], selectSelectivities[len(selectSelectivities)-1]
	ok := 0
	for _, enc := range selectEncodings {
		for _, agg := range []bool{false, true} {
			want := paperWinners[panel(enc, agg)]
			low, high := winners[selectPoint(enc, lo, agg)], winners[selectPoint(enc, hi, agg)]
			if strings.HasPrefix(low, want[0]) && strings.HasPrefix(high, want[1]) {
				ok++
			}
		}
	}
	set("model.crossover_ok", float64(ok), len(paperWinners))
	return nil
}

func latenciesByClass(samples []sample) map[string][]float64 {
	by := map[string][]float64{}
	for _, s := range samples {
		if s.out.err == nil {
			by[s.op.Class] = append(by[s.op.Class], float64(s.out.lat.Nanoseconds())/1e6)
		}
	}
	return by
}

// tracedRun measures the per-layer metrics: an untraced window, around which
// the program's counters are read; a traced window, whose spans give the
// layer times; and the probes this workload is home to. The end-to-end
// metrics are never taken from here.
func (e *env) tracedRun(cfg Config, sched *Schedule, warmS float64, sp *speedometer, res *Result) error {
	units := map[string]string{}
	for _, d := range PerLayer {
		units[d.Name] = d.Unit
		res.Metrics[d.Name] = Metric{Unit: d.Unit, NA: true}
	}
	setN := func(name string, v float64, n int) {
		u, ok := units[name]
		if !ok {
			panic("perf: metric " + name + " is not in PerLayer")
		}
		res.Metrics[name] = Metric{Value: v, Unit: u, N: n}
	}
	set := func(name string, v float64) { setN(name, v, 0) }

	before, err := e.counters()
	if err != nil {
		return err
	}
	from := len(sp.f)
	plain := flatten(e.window(sched, cfg.Seconds*0.4, minOps/2, 0, nil, sp))
	after, err := e.counters()
	if err != nil {
		return err
	}
	rec := &Recorder{}
	traced := flatten(e.window(sched, cfg.Seconds*0.4, minOps/2, 0, rec, sp))
	// The per-layer times are wall-clock; this is what to divide them by to
	// set them beside the end-to-end ones (speed.go).
	set("host.speed_factor", sp.factorSince(from))

	for _, w := range [][]sample{plain, traced} {
		failed, first, err := e.verify(w, cfg.Seed, cfg.corruptOracle)
		if err != nil {
			return err
		}
		res.Attempted += len(w)
		res.Failed += failed
		if res.FirstFailure == "" {
			res.FirstFailure = first
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("perf: %s: the schedule ran out before the traced run", cfg.Workload)
	}

	// Counters over the untraced window.
	ops := float64(len(plain))
	var tuples, spill, deferred, respBytes float64
	spillOps := 0
	for _, s := range plain {
		tuples += float64(s.out.tuplesConstructed)
		deferred += float64(s.out.deferredFetches)
		respBytes += float64(s.out.respBytes)
		if s.op.Class == SpillClass {
			spill += float64(s.out.spillBytes)
			spillOps++
		}
	}
	hits, misses := float64(after.pool.hits-before.pool.hits), float64(after.pool.misses-before.pool.misses)
	set("storage.pool_hit_ratio", ratio(hits, hits+misses))
	set("storage.blocks_read_per_op", float64(after.pool.reads-before.pool.reads)/ops)
	set("storage.open_s", e.openS)
	set("tpch.generate_s", e.generateS)
	set("process.alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/ops)
	set("process.gc_cpu_share", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
	if served(e.workload) {
		a, b := after.svc, before.svc
		cache := func(name string, hits, misses int64) {
			set(name, ratio(float64(hits), float64(hits+misses)))
		}
		cache("service.result_cache_hit_ratio", a.ResultCache.Hits-b.ResultCache.Hits, a.ResultCache.Misses-b.ResultCache.Misses)
		cache("service.plan_cache_hit_ratio", a.PlanCache.Hits-b.PlanCache.Hits, a.PlanCache.Misses-b.PlanCache.Misses)
		cache("service.build_cache_hit_ratio", a.BuildCache.Hits-b.BuildCache.Hits, a.BuildCache.Misses-b.BuildCache.Misses)
		set("service.result_cache_evictions_per_op", float64(a.ResultCache.Evictions-b.ResultCache.Evictions)/ops)
		set("service.response_kb_per_op", respBytes/1024/ops)
		set("service.warmup_s", warmS)
		set("memory.peak_reserved_mb", float64(a.Memory.PeakReserved)/(1<<20))
		set("memory.shed_total", float64(a.Memory.Shed))
	} else {
		set("core.tuples_constructed_per_op", tuples/ops)
	}
	if e.workload == CoordMixed {
		a, b := after.coord, before.coord
		set("coordinator.shard_requests_per_op", float64(a.ShardRequests-b.ShardRequests)/ops)
		set("coordinator.pruned_shards_per_op", float64(a.PrunedShards-b.PrunedShards)/ops)
	}
	if e.workload == PaperJoin {
		set("operators.spill_bytes_per_op", ratio(spill, float64(spillOps)))
		set("operators.deferred_fetches_per_op", deferred/ops)
	}

	// Layer times over the traced window.
	sums := sumLayers(rec)
	tops := float64(len(traced))
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / tops }
	for layer, metric := range map[string]string{
		"scan": "plan.scan_us_per_op", "extract": "plan.extract_us_per_op",
		"and": "plan.and_us_per_op", "agg": "plan.agg_us_per_op",
		"join_build": "plan.join_build_us_per_op", "join_probe": "plan.join_probe_us_per_op",
	} {
		set(metric, perOp(sums.byNode[layer]))
	}
	set("plan.merge_us_per_op", perOp(sums.byPhase["plan.merge"]))
	set("plan.unattributed_share", ratio(float64(sums.execUnattr), float64(sums.execWall)))
	set("plan.morsels_per_op", ratio(sums.morsels, float64(sums.morselSpans)))
	set("plan.workers_per_op", ratio(sums.workers, float64(sums.morselSpans)))
	set("obs.attributed_share", 1-ratio(float64(sums.unattrWall), float64(sums.clientWall)))
	plainP50, tracedP50 := Median(latenciesMS(plain)), Median(latenciesMS(traced))
	setN("obs.trace_overhead_ratio", ratio(tracedP50, plainP50), len(traced))
	if served(e.workload) {
		set("service.wire_us_per_op", perOp(sums.clientWall-sums.serverWall))
		set("service.result_cache_lookup_us_per_op", perOp(sums.byPhase["result_cache.lookup"]))
		set("service.admission_us_per_op", perOp(sums.byPhase["admission"]))
		set("service.admission_queued_share", ratio(float64(sums.queued), float64(sums.admissions)))
		set("service.plan_build_us_per_op", perOp(sums.byPhase["plan.build"]))
		set("service.execute_us_per_op", perOp(sums.byPhase["execute"]))
		set("service.unattributed_us_per_op", perOp(sums.engineSelf))
		set("service.grant_workers_mean", ratio(sums.grants, float64(sums.admissions)))
		set("memory.reserve_us_per_op", perOp(sums.byPhase["memory.reserve"]))
	}
	if e.workload == CoordMixed {
		set("coordinator.fanout_us_per_op", perOp(sums.byPhase["fanout"]))
		set("coordinator.merge_us_per_op", perOp(sums.byPhase["coordinator.merge"]))
		set("coordinator.overhead_us_per_op", perOp(sums.overhead))
		set("coordinator.straggler_ratio", ratio(sums.straggler, float64(sums.fanouts)))
		for _, kind := range []string{MergeConcat, MergeAggStats, MergeRowID, MergeFinalized} {
			setN("coordinator.merge_"+kind+"_us", Median(sums.mergeByKind[kind]), len(sums.mergeByKind[kind]))
		}
	}

	// Class medians, which decompose the end-to-end latencies and so come from
	// the untraced window, and probes of the home workloads.
	byClass := latenciesByClass(plain)
	procs := Procs()
	switch e.workload {
	case PaperSelect:
		for _, s := range strategyNames {
			setN("core."+strings.ReplaceAll(s, "-", "_")+"_p50_ms", Median(byClass[s]), len(byClass[s]))
		}
		if err := modelMetrics(e.db, traced, plain, setN); err != nil {
			return err
		}
		if err := selectProbes(e.db, set); err != nil {
			return err
		}
	case PaperJoin:
		for _, rs := range rightStrategyNames {
			setN("operators."+strings.ReplaceAll(rs, "-", "_")+"_p50_ms", Median(byClass[rs]), len(byClass[rs]))
		}
		setN("operators.spill_join_p50_ms", Median(byClass[SpillClass]), len(byClass[SpillClass]))
		if err := joinProbes(e.db, procs, set); err != nil {
			return err
		}
	case ServeHot:
		if err := e.sessionProbe(set); err != nil {
			return err
		}
	}

	res.SpanFile = filepath.Join(cfg.Dir, "csperf-spans-"+cfg.Workload+".json")
	return rec.WriteFile(res.SpanFile)
}
