package plan

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"matstore/internal/datasource"
	"matstore/internal/encoding"
	"matstore/internal/exec"
	"matstore/internal/multicol"
	"matstore/internal/obs"
	"matstore/internal/operators"
	"matstore/internal/positions"
	"matstore/internal/rows"
)

// This file is the single generic morsel executor: it runs ANY plan tree —
// whichever of the four strategy shapes (or a future hybrid) the builder
// assembled — by interpreting the tree chunk-at-a-time inside chunk-aligned
// morsels. The per-strategy driver loops that used to live in
// internal/core/select_em.go and select_lm.go are replaced by three small
// interpreters keyed off the tree's domain: a position-domain walk (both LM
// strategies), a tuple-domain chain walk (EM-pipelined), and the SPC leaf
// (EM-parallel). Morsel scheduling, partial accumulation and the
// deterministic merge are shared by all of them.

// RunStats aggregates a plan execution's counters.
type RunStats struct {
	TuplesConstructed int64
	PositionsMatched  int64
	ChunksSkipped     int64
	Groups            int
	Workers           int
	Morsels           int
	// AggState is the run's final merged aggregator (aggregating plans
	// only). It holds the per-group mergeable statistics behind the emitted
	// result — the partial a shard exports so a scatter-gather coordinator
	// can absorb disjoint-range partials and re-emit.
	AggState *operators.Aggregator
	// Join carries the join-specific counters of a join tree (zero for
	// selection/aggregation plans).
	Join operators.JoinStats
}

// partial is one morsel's private execution state: an aggregator or a
// columnar result (never both), plus counter deltas. Partials merge in
// morsel order, which makes parallel output byte-identical to serial output.
type partial struct {
	agg *operators.Aggregator
	res *rows.Result
	// limit is the run's row cap (RunOptions.Limit): res is sealed to it after
	// every chunk, so a morsel holds its first limit rows plus one chunk's.
	limit int
	// spilled[sp] lists the spill-mode probes whose keys routed to spilled
	// partition sp, in row order: each holds a placeholder row in res that
	// pass B fills in place (see assembleSpillMatches).
	spilled [][]deferredProbe
	stats   RunStats
}

// deferredProbe is one probe key awaiting its spilled partition, and the row
// of its partial's result that holds its placeholder.
type deferredProbe struct {
	row int
	key int64
}

// init allocates the partial's accumulator for the spec's shape and returns
// both slots (one of them nil).
func (pt *partial) init(s Spec) (*operators.Aggregator, *rows.Result) {
	if s.Aggregating {
		pt.agg = operators.NewAggregator(s.Agg)
		return pt.agg, nil
	}
	pt.res = rows.NewResult(s.OutNames...)
	return nil, pt.res
}

// RunOptions parameterizes RunWith beyond the worker request: an optional
// context (checked between morsels, between spill chunks and between spilled
// partitions, so cancellation releases workers and temp files promptly), the
// EXPLAIN observation flag, and an optional Grace spill configuration for
// the join build (set by the service when the memory governor denies an
// in-memory reservation).
type RunOptions struct {
	Ctx     context.Context
	Observe bool
	// Spill forces the join build into budget-bounded spill mode. Spilled
	// results are byte-identical to in-memory execution; the temp files are
	// removed when the run returns, on every path.
	Spill *operators.SpillConfig
	// Limit caps the rows the result keeps (0 = every row); its Total and Sums
	// cover every row regardless. It is a size of this run, not of the plan:
	// one cached plan serves every limit.
	Limit int
	// Trace is the parent span for this run's phase spans (join build,
	// morsel execution, merge, spill assembly) plus one synthetic span per
	// plan node from the Observed counters. Nil (the default) adds no spans
	// and no clock reads beyond Observe's. Callers that set Trace should
	// also set Observe, or the node spans will carry zero counters.
	Trace *obs.Span
}

// Run executes the plan morsel-parallel across the given worker request
// (0 = one worker per CPU, 1 = serial chunk-at-a-time) and merges the
// per-morsel partials deterministically. With observe set, every node
// accumulates observed rows/time counters for EXPLAIN.
//
// Join trees add a build-barrier phase: the JOINBUILD node's partitioned
// hash side is constructed (itself morsel-parallel) before the streaming
// probe morsels start, and the single-column strategy's deferred payload
// fetch runs batched after the merge.
func (p *Plan) Run(parallelism int, observe bool) (*rows.Result, RunStats, error) {
	return p.RunWith(parallelism, RunOptions{Observe: observe})
}

// RunWith is Run with a context and an optional spill configuration.
func (p *Plan) RunWith(parallelism int, opt RunOptions) (*rows.Result, RunStats, error) {
	ctx, observe := opt.Ctx, opt.Observe
	if ctx == nil {
		ctx = context.Background()
	}
	if observe {
		p.observed = true
	}
	var stats RunStats
	workers := exec.Resolve(parallelism)
	probe := p.JoinProbe()
	var built *operators.PartitionedTable
	if probe != nil {
		var err error
		bspan := opt.Trace.Child("join.build")
		if built, err = p.runJoinBuild(ctx, probe.Children[1], workers, &stats, observe, opt.Spill); err != nil {
			return nil, RunStats{}, err
		}
		bspan.SetAttr("build_tuples", stats.Join.RightBuildTuples)
		bspan.SetAttr("partitions", stats.Join.Partitions)
		if stats.Join.BuildCacheHit {
			bspan.SetAttr("build_cache_hit", true)
		}
		if stats.Join.Spilled {
			bspan.SetAttr("spilled_parts", stats.Join.SpilledParts)
			bspan.SetAttr("spill_bytes", stats.Join.SpillBytes)
			bspan.SetAttr("spill_write_ns", stats.Join.SpillWriteNanos)
		}
		bspan.End()
		// A spill-built table owns temp files; they are removed when the run
		// finishes, success or not (no-op for in-memory builds, which may be
		// shared through the build cache).
		defer built.ReleaseSpill()
	}
	extent := positions.Range{Start: 0, End: p.Spec.Tuples}
	// Morsel sizing adapts to the previous run's observed per-morsel
	// selectivity skew (first run: the static default carving).
	perWorker := exec.AdaptiveMorselsPerWorker(p.ObservedSkew())
	morsels := exec.MorselsN(extent, p.Spec.ChunkSize, workers, perWorker)
	parts := make([]*partial, len(morsels))
	mspan := opt.Trace.Child("morsels")
	mspan.SetAttr("parallel", true)
	mspan.SetAttr("workers", workers)
	mspan.SetAttr("morsels", len(morsels))
	err := exec.Run(workers, len(morsels), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		pt := &partial{limit: opt.Limit}
		if err := p.runMorsel(morsels[i], pt, built, observe); err != nil {
			return err
		}
		parts[i] = pt
		return nil
	})
	if err != nil {
		return nil, RunStats{}, err
	}
	mspan.End()
	if len(parts) == 0 {
		// Empty projection: no morsels exist, so synthesize one empty
		// partial and let the merge produce a valid empty result.
		pt := &partial{}
		pt.init(p.Spec)
		parts = []*partial{pt}
	}
	p.updateSkew(morsels, parts)
	gspan := opt.Trace.Child("merge")
	res := mergePartials(p.Spec, parts, &stats)
	if probe != nil {
		if built.DeferredPayload() {
			// Pass B of the Grace join: resolve the probes that routed to
			// spilled partitions, partition-at-a-time, into their placeholder
			// rows.
			aspan := gspan.Child("spill.assemble")
			if res, err = p.assembleSpillMatches(ctx, probe, built, res, parts, &stats); err != nil {
				return nil, RunStats{}, err
			}
			aspan.End()
		}
		if err := p.joinDeferredFetch(probe, built, res, &stats, observe); err != nil {
			return nil, RunStats{}, err
		}
	}
	// Sealed per chunk, this only cuts the concatenated prefixes to the cap;
	// an aggregation's emitted groups and a deferred join's fetched rows are
	// folded here, once they are final. Either way the chunk-sized buffers the
	// rows were written through end with the run.
	res.Seal(opt.Limit)
	res.Clip()
	gspan.End()
	if workers > len(morsels) {
		workers = len(morsels) // a worker without a morsel never runs
	}
	stats.Workers = workers
	stats.Morsels = len(morsels)
	stats.Join.Workers = stats.Workers
	stats.Join.Morsels = stats.Morsels
	if observe {
		// Root cardinality is only known after the merge.
		switch p.Root.Kind {
		case KindAggregate:
			p.Root.Obs.Rows.Store(int64(stats.Groups))
		default:
			p.Root.Obs.Rows.Store(res.Total)
		}
	}
	// Synthetic per-node spans from the final Observed counters (after the
	// merge and deferred fetch, which still add to them).
	attachNodeSpans(mspan, p.Root)
	return res, stats, nil
}

// updateSkew records the run's per-morsel selectivity skew — the
// coefficient of variation of matched-position density across morsels — for
// the next run's adaptive morsel sizing. Serial runs (one morsel) carry no
// skew signal and leave the previous observation in place.
func (p *Plan) updateSkew(morsels []positions.Range, parts []*partial) {
	if len(morsels) < 2 || len(parts) != len(morsels) {
		return
	}
	dens := make([]float64, len(parts))
	var mean float64
	for i, pt := range parts {
		dens[i] = float64(pt.stats.PositionsMatched) / float64(morsels[i].Len())
		mean += dens[i]
	}
	mean /= float64(len(dens))
	if mean <= 0 {
		p.skewBits.Store(math.Float64bits(0))
		return
	}
	var variance float64
	for _, d := range dens {
		variance += (d - mean) * (d - mean)
	}
	variance /= float64(len(dens))
	p.skewBits.Store(math.Float64bits(math.Sqrt(variance) / mean))
}

// mergePartials recombines per-morsel partials deterministically: aggregate
// states merge through the mergeable-state contract and emit sorted by key;
// row partials concatenate in morsel (block) order, their totals and sums
// adding. A lone partial is adopted wholesale, so serial execution does no
// extra copying. Under a cap every partial holds at most the cap's rows, so
// the concatenation holds a superset of the kept prefix; RunWith cuts it.
func mergePartials(s Spec, parts []*partial, stats *RunStats) *rows.Result {
	for _, pt := range parts {
		stats.TuplesConstructed += pt.stats.TuplesConstructed
		stats.PositionsMatched += pt.stats.PositionsMatched
		stats.ChunksSkipped += pt.stats.ChunksSkipped
		stats.Join.LeftProbes += pt.stats.Join.LeftProbes
		stats.Join.OutputTuples += pt.stats.Join.OutputTuples
	}
	if s.Aggregating {
		agg := parts[0].agg
		for _, pt := range parts[1:] {
			agg.Merge(pt.agg)
		}
		res := agg.Emit(s.OutNames[0], s.OutNames[1])
		stats.Groups = agg.Groups()
		stats.AggState = agg
		stats.TuplesConstructed += int64(res.NumRows())
		return res
	}
	res := parts[0].res
	rest := 0
	for _, pt := range parts[1:] {
		rest += pt.res.NumRows()
	}
	res.Reserve(rest)
	for _, pt := range parts[1:] {
		if err := res.Append(pt.res); err != nil {
			// Partials are built from the same query schema; a mismatch is a
			// programming error, not a runtime condition.
			panic("plan: " + err.Error())
		}
	}
	return res
}

// runMorsel dispatches the morsel to the interpreter matching the tree's
// domain. built is the run's partitioned hash side (join trees only).
func (p *Plan) runMorsel(r positions.Range, pt *partial, built *operators.PartitionedTable, observe bool) error {
	root := p.Root
	if len(root.Children) == 0 {
		return fmt.Errorf("plan: root %v has no input", root.Kind)
	}
	child := root.Children[0]
	switch {
	case root.Kind == KindMerge, root.Kind == KindAggregate && child.PositionsDomain():
		return p.runPositionsMorsel(r, pt, observe)
	case child.Kind == KindJoinProbe:
		return p.runJoinProbeMorsel(r, pt, built, observe)
	case child.Kind == KindSPC:
		return p.runSPCMorsel(r, pt, observe)
	default:
		return p.runTupleMorsel(r, pt, observe)
	}
}

// runPositionsMorsel interprets position-domain trees: both LM strategies.
// The position subtree (DS1 scans, AND, DS3+pred narrowing) produces each
// chunk's surviving descriptor; the Merge root extracts and merges values,
// the Aggregate root folds compressed mini-columns directly.
func (p *Plan) runPositionsMorsel(r positions.Range, pt *partial, observe bool) error {
	root := p.Root
	posNode := root.Children[0]
	var agg *operators.Aggregator
	var merger *operators.Merger
	var extracts []*Node
	if p.Spec.Aggregating {
		agg = operators.NewAggregator(p.Spec.Agg)
		pt.agg = agg
	} else {
		// The morsel's MERGE accumulates the partial's result; per-morsel
		// results concatenate in block order at the top.
		merger = operators.NewMerger(p.Spec.OutNames...)
		pt.res = merger.Result()
		extracts = root.Children[1:]
	}

	ch := datasource.NewChunker(r, p.Spec.ChunkSize)
	valBufs := make([][]int64, len(p.Spec.MatCols))
	for ci := 0; ci < ch.NumChunks(); ci++ {
		cr := ch.Chunk(ci)
		mc := multicol.New(cr)
		desc, skipped, err := p.evalPositions(posNode, cr, mc, pt, observe)
		if err != nil {
			return err
		}
		if skipped {
			continue
		}
		if desc == nil || desc.Count() == 0 {
			continue
		}
		mc.SetDescriptor(desc)
		pt.stats.PositionsMatched += desc.Count()

		if p.Spec.Aggregating {
			// Aggregate directly on compressed data; no tuples constructed.
			// The aggregator consumes whole mini-columns, so a missing mini
			// is re-windowed rather than gathered.
			start := obsStart(observe)
			minis := make([]encoding.MiniColumn, len(p.Spec.MatCols))
			for i, name := range p.Spec.MatCols {
				mini, ok := mc.Mini(name)
				if !ok {
					var err error
					if mini, err = root.MatColumns[i].Window(cr); err != nil {
						return err
					}
				}
				minis[i] = mini
			}
			operators.AggregateCompressedChunk(agg, minis[0], minis[1], desc)
			obsNanos(&root.Obs, start, observe)
			continue
		}

		// Materialization: DS3 per needed column (gatherAt), each vector sized
		// to the surviving-position count before it is filled.
		for i, n := range extracts {
			start := obsStart(observe)
			var err error
			if valBufs[i], err = gatherAt(mc, n.Col, n.Column, desc, slices.Grow(valBufs[i][:0], int(desc.Count()))); err != nil {
				return err
			}
			if observe {
				n.Obs.add(int64(len(valBufs[i])), time.Since(start).Nanoseconds())
			}
		}
		start := obsStart(observe)
		if err := merger.MergeChunk(valBufs...); err != nil {
			return err
		}
		pt.res.Seal(pt.limit)
		obsNanos(&root.Obs, start, observe)
	}

	if !p.Spec.Aggregating {
		pt.stats.TuplesConstructed += merger.TuplesConstructed
	}
	return nil
}

// evalPositions evaluates a position-domain subtree for one chunk,
// attaching every scanned mini-column to the chunk's multi-column. The
// skipped return reports pipelined chunk skipping: a narrowing node whose
// input ran dry skips the remaining columns' blocks entirely (counted once
// per chunk).
func (p *Plan) evalPositions(n *Node, cr positions.Range, mc *multicol.MultiColumn, pt *partial, observe bool) (positions.Set, bool, error) {
	switch n.Kind {
	case KindPosAll:
		set := positions.Set(positions.NewRanges(cr))
		if observe {
			n.Obs.add(set.Count(), 0)
		}
		return set, false, nil

	case KindDS1:
		start := obsStart(observe)
		ps, mini, err := datasource.NewDS1(n.Column, n.Conj).ScanChunk(cr)
		if err != nil {
			return nil, false, err
		}
		mc.Attach(n.Col, mini)
		if observe {
			n.Obs.add(ps.Count(), time.Since(start).Nanoseconds())
		}
		return ps, false, nil

	case KindAND:
		sets := make([]positions.Set, len(n.Children))
		for i, c := range n.Children {
			s, _, err := p.evalPositions(c, cr, mc, pt, observe)
			if err != nil {
				return nil, false, err
			}
			sets[i] = s
		}
		start := obsStart(observe)
		set := positions.AndAll(sets...)
		if observe {
			n.Obs.add(set.Count(), time.Since(start).Nanoseconds())
		}
		return set, false, nil

	case KindFilterAt:
		in, skipped, err := p.evalPositions(n.Children[0], cr, mc, pt, observe)
		if err != nil || skipped {
			return nil, skipped, err
		}
		if in.Count() == 0 {
			// Pipelined block skipping: this column's blocks (and every
			// column above) are never read for this chunk.
			pt.stats.ChunksSkipped++
			return nil, true, nil
		}
		start := obsStart(observe)
		mini, err := n.Column.Window(cr)
		if err != nil {
			return nil, false, err
		}
		mc.Attach(n.Col, mini)
		set := mini.FilterAt(in, n.Conj)
		if observe {
			n.Obs.add(set.Count(), time.Since(start).Nanoseconds())
		}
		return set, false, nil

	default:
		return nil, false, fmt.Errorf("plan: %v is not a position-domain node", n.Kind)
	}
}

// runTupleMorsel interprets the EM-pipelined chain: a DS2 leaf producing
// early (position, value) tuples, widened (and filtered) by each DS4 node in
// order, emitted into the result or aggregator at the top. Chunks whose
// batch runs empty skip the remaining columns' blocks.
func (p *Plan) runTupleMorsel(r positions.Range, pt *partial, observe bool) error {
	agg, res := pt.init(p.Spec)
	// Flatten the chain leaf-first: root.Children[0] is the topmost DS4 (or
	// the DS2 itself for single-column plans).
	var chain []*Node
	for n := p.Root.Children[0]; n != nil; {
		chain = append(chain, n)
		if len(n.Children) > 0 {
			n = n.Children[0]
		} else {
			n = nil
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	if chain[0].Kind != KindDS2 {
		return fmt.Errorf("plan: tuple chain leaf is %v, want DS2", chain[0].Kind)
	}
	// The chain's data sources, over the conjunctions the plan compiled: the
	// DS2 leaf plus one DS4 per widening node, each holding this morsel's mask.
	ds2 := datasource.NewDS2(chain[0].Column, chain[0].Conj)
	ds4s := make([]*datasource.DS4, len(chain))
	for i, n := range chain[1:] {
		ds4s[i+1] = datasource.NewDS4(n.Column, n.Conj)
	}
	// The morsel's one batch: DS2 refills it per chunk and each DS4 widens it
	// in place, so its buffers — one per chain column — are allocated once
	// and what it holds is valid only until the next chunk.
	names := make([]string, len(chain))
	for i, n := range chain {
		names[i] = n.Col
	}
	batch := rows.NewBatch(names...)
	ch := datasource.NewChunker(r, p.Spec.ChunkSize)
	for ci := 0; ci < ch.NumChunks(); ci++ {
		cr := ch.Chunk(ci)
		start := obsStart(observe)
		if err := ds2.ScanChunk(cr, batch); err != nil {
			return err
		}
		pt.stats.TuplesConstructed += int64(batch.Len())
		if observe {
			chain[0].Obs.add(int64(batch.Len()), time.Since(start).Nanoseconds())
		}
		skipped := false
		for i := 1; i < len(chain); i++ {
			if batch.Len() == 0 {
				pt.stats.ChunksSkipped++
				skipped = true
				break
			}
			// DS4 widening via the batched block-pinned gather: one fetch
			// for the whole batch's positions instead of a per-tuple jump,
			// touching only the blocks that hold surviving positions.
			start := obsStart(observe)
			if err := ds4s[i].ExtendChunkBatched(batch, i); err != nil {
				return err
			}
			pt.stats.TuplesConstructed += int64(batch.Len())
			if observe {
				chain[i].Obs.add(int64(batch.Len()), time.Since(start).Nanoseconds())
			}
		}
		if skipped || batch.Len() == 0 {
			continue
		}
		pt.stats.PositionsMatched += int64(batch.Len())
		start = obsStart(observe)
		if err := emitBatch(batch, p.Spec, agg, res, pt.limit); err != nil {
			return err
		}
		obsNanos(&p.Root.Obs, start, observe)
	}
	return nil
}

// runSPCMorsel interprets the EM-parallel leaf: every column's chunk is
// decompressed into a value vector, each filter's compiled kernel evaluates
// its whole vector into a selection mask, and tuples are constructed at the
// very bottom of the plan by compacting the output columns through the ANDed
// masks.
func (p *Plan) runSPCMorsel(r positions.Range, pt *partial, observe bool) error {
	agg, res := pt.init(p.Spec)
	spc := p.Root.Children[0]
	ch := datasource.NewChunker(r, p.Spec.ChunkSize)
	// Compiled kernels, the mask and the scratch buffers are per-morsel
	// (workers share nothing but the pool); the mask describes one chunk and is
	// overwritten by the next.
	leaf := operators.CompileSPC(spc.SPCFilters, spc.SPCOutIdx)
	scratch := make([][]int64, len(spc.SPCColumns))
	// SPC constructs tuples column-wise straight into the result (or, for
	// aggregations, into recycled per-chunk key/value vectors feeding the
	// hash aggregator).
	aggDst := rows.NewResult(p.Spec.GroupBy, p.Spec.AggCol)
	for ci := 0; ci < ch.NumChunks(); ci++ {
		cr := ch.Chunk(ci)
		start := obsStart(observe)
		// EM decompresses early: every column's chunk becomes a value
		// vector before predicate evaluation (Section 2.1.2's cost).
		for i, c := range spc.SPCColumns {
			mini, err := c.Window(cr)
			if err != nil {
				return err
			}
			scratch[i] = mini.Decompress(scratch[i][:0])
		}
		var constructed int64
		if p.Spec.Aggregating {
			aggDst.Cols[0], aggDst.Cols[1] = aggDst.Cols[0][:0], aggDst.Cols[1][:0]
			constructed = leaf.Chunk(scratch, aggDst)
			agg.AddBatch(aggDst.Cols[0], aggDst.Cols[1])
		} else {
			constructed = leaf.Chunk(scratch, res)
			res.Seal(pt.limit)
		}
		pt.stats.TuplesConstructed += constructed
		pt.stats.PositionsMatched += constructed
		if observe {
			spc.Obs.add(constructed, time.Since(start).Nanoseconds())
		}
	}
	return nil
}

// emitBatch routes a constructed-tuple batch into the aggregator or the
// result, in output order, and seals the result to limit.
func emitBatch(batch *rows.Batch, s Spec, agg *operators.Aggregator, res *rows.Result, limit int) error {
	if s.Aggregating {
		keys, err := batch.Col(s.GroupBy)
		if err != nil {
			return err
		}
		vals, err := batch.Col(s.AggCol)
		if err != nil {
			return err
		}
		agg.AddBatch(keys, vals)
		return nil
	}
	res.Reserve(batch.Len())
	for i, name := range s.Output {
		vals, err := batch.Col(name)
		if err != nil {
			return err
		}
		res.Cols[i] = append(res.Cols[i], vals...)
	}
	res.Seal(limit)
	return nil
}

// obsStart returns the timing anchor for an observed section (zero when
// observation is off, so the fast path never calls the clock).
func obsStart(observe bool) time.Time {
	if !observe {
		return time.Time{}
	}
	return time.Now()
}

// obsNanos accumulates elapsed time on a node without touching its row
// counter (used for root nodes, whose cardinality is set once at the end).
func obsNanos(o *Observed, start time.Time, observe bool) {
	if observe {
		o.Nanos.Add(time.Since(start).Nanoseconds())
	}
}
