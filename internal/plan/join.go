package plan

import (
	"context"
	"slices"
	"strings"
	"time"

	"matstore/internal/datasource"
	"matstore/internal/encoding"
	"matstore/internal/multicol"
	"matstore/internal/operators"
	"matstore/internal/positions"
	"matstore/internal/rows"
	"matstore/internal/storage"
)

// This file is the join half of the generic morsel executor: the blocking
// build-barrier phase that radix-partitions the inner table before any probe
// morsel starts, the streaming probe interpreter that runs inside the same
// morsel loop as every other plan shape, and the deferred right-payload
// post-pass of the single-column strategy. The probe side is fully batched:
// outer keys and outer payload values are gathered per chunk through the
// multi-column's retained mini-columns or the block-pinned
// storage.Column.GatherAt path — never a per-row ValueAt — and joined rows
// are emitted column-wise.

// runJoinBuild executes the plan's build-barrier phase: the inner table is
// scanned morsel-parallel into radix partitions and one hash table is built
// per partition, all through the same exec scheduler the probe morsels use.
// Nothing streams until the build completes. The returned table flows
// through the run explicitly; the node retains one only for EXPLAIN.
func (p *Plan) runJoinBuild(ctx context.Context, build *Node, workers int, stats *RunStats, observe bool, spill *operators.SpillConfig) (*operators.PartitionedTable, error) {
	start := obsStart(observe)
	var (
		rt     *operators.PartitionedTable
		cached bool
		err    error
	)
	buildFn := func() (*operators.PartitionedTable, error) {
		return operators.BuildPartitioned(
			build.Column, build.RightCols, build.RightPayload,
			build.RightStrategy, p.Spec.ChunkSize, workers, build.Partitions)
	}
	switch {
	case spill != nil:
		// Grace spill mode: a budget-bounded, run-private build. It bypasses
		// the shared build cache — its resident share is sized to this run's
		// byte grant and its cold partitions are rebuilt by this run's pass
		// B, so it is not a build another query could share.
		rt, err = operators.BuildPartitionedSpill(ctx,
			build.Column, build.RightCols, build.RightPayload,
			build.RightStrategy, p.Spec.ChunkSize, workers, build.Partitions, *spill)
	case p.Builds != nil:
		// Shared retained-build path: the cache either hands back a table
		// another query already built (no inner-table scan at all) or
		// builds one and retains it for the next query.
		rt, cached, err = p.Builds.GetOrBuild(p.buildKey(build), buildFn)
	default:
		rt, err = buildFn()
	}
	if err != nil {
		return nil, err
	}
	if observe {
		// Retain the table on the node only for the EXPLAIN renderer.
		build.built = rt
		build.Obs.add(rt.Tuples, time.Since(start).Nanoseconds())
	}
	stats.Join.RightBuildTuples = rt.BuildTuples
	stats.Join.Partitions = rt.Partitions
	stats.Join.BuildWorkers = rt.BuildWorkers
	stats.Join.BuildMorsels = rt.BuildMorsels
	stats.Join.BuildCacheHit = cached
	stats.Join.Spilled = rt.DeferredPayload()
	stats.Join.SpilledParts = rt.SpilledParts
	stats.Join.SpillBytes = rt.SpillBytes
	return rt, nil
}

// buildKey derives the shared-cache identity of a JOINBUILD node: everything
// the built table's contents depend on. The partition override (not the
// resolved count) keys the entry — results are byte-identical at every
// partition count, so a build produced under one worker count serves all.
func (p *Plan) buildKey(build *Node) operators.BuildKey {
	return operators.BuildKey{
		Proj:       build.Proj,
		KeyCol:     build.Col,
		Payload:    strings.Join(build.RightPayload, ","),
		Strategy:   build.RightStrategy,
		Partitions: build.Partitions,
		ChunkSize:  p.Spec.ChunkSize,
	}
}

// runJoinProbeMorsel interprets one outer-table morsel of a join tree: the
// position subtree (DS1 on the outer key, or ALLPOS) yields each chunk's
// surviving positions; probe keys and outer payload values are gathered
// batched at those positions; the whole chunk's keys probe the partitioned
// table in one loop; and matches emit column-wise into the morsel's partial
// result — the multi-column strategy's inner payload included, gathered once
// per chunk of matches out of the retained mini-columns. The pipeline is
// reserve-once: gather and match scratch is the worker's (vectors), sized to
// the chunk's surviving-position count before it is filled, and each chunk's
// matches are written into one result chunk of exactly the match count.
//
// Deferred right payload (the single-column strategy, and every strategy in
// spill mode) has no list of its own: each row's right position is stored in
// the row's first right-payload column, where it rides through the merge and
// pass B until joinDeferredFetch overwrites it with the fetched value. Such a
// morsel keeps its result uncapped and does not seal it — a sum over
// positions means nothing, and the fetch and pass B need every one of them —
// so the run's rows exist in full until RunWith seals them after the fetch;
// they do not outlive it.
func (p *Plan) runJoinProbeMorsel(r positions.Range, pt *partial, rt *operators.PartitionedTable, vs *vectors, observe bool) error {
	probe := p.Root.Children[0]
	posNode := probe.Children[0]
	ch := datasource.NewChunker(r, p.Spec.ChunkSize)
	_, res := pt.init(p.Spec, ch.NumChunks())
	base := len(probe.LeftCols)
	payload := rt.Payload()
	spill := rt.DeferredPayload()
	deferred := spill || rt.Strategy() == operators.RightSingleColumn
	if deferred {
		res.Limit = 0
	}
	var perPart []int // keys of one chunk per partition
	if spill {
		pt.spilled = make([][]spillSegment, rt.Partitions)
		perPart = make([]int, rt.Partitions)
	}

	vs.left = slots(vs.left, base)
	for ci := 0; ci < ch.NumChunks(); ci++ {
		cr := ch.Chunk(ci)
		mc := multicol.New(cr)
		desc, skipped, err := p.evalPositions(posNode, cr, mc, pt, observe)
		if err != nil {
			return err
		}
		if skipped || desc == nil || desc.Count() == 0 {
			continue
		}
		n := int(desc.Count())
		pt.stats.PositionsMatched += int64(n)

		// Batched key gather: from the scan's retained mini-column when the
		// multi-column covers it, else the block-pinned gather. Every gather
		// destination is sized to the surviving-position count first.
		start := obsStart(observe)
		if vs.keys, err = gatherAt(mc, probe.Col, probe.Column, desc, slices.Grow(vs.keys[:0], n)); err != nil {
			return err
		}
		// Batched outer payload gather at the same surviving positions.
		for c, col := range probe.LeftCols {
			if vs.left[c], err = gatherAt(mc, probe.OutCols[c], col, desc, slices.Grow(vs.left[c][:0], n)); err != nil {
				return err
			}
		}

		// Probe: collect (chunk-local key index, right position) match pairs,
		// one per probing key when the inner key is unique — what the scratch
		// is sized for; the vectors keep what a repeated key grows them to.
		matchIdx, matchPos := slices.Grow(vs.matchIdx[:0], n), slices.Grow(vs.matchPos[:0], n)
		placeholders := 0
		if spill {
			// A key landing in a spilled partition emits a placeholder row
			// where its match belongs and is listed, with that row's chunk and
			// offset, on its partition's list; pass B fills the row in place,
			// or drops or expands it when the key matches zero or several
			// times. The keys are counted per partition first, so each list
			// gets one segment per chunk of exactly its probes: nothing is
			// regrown, and nothing is allocated for probes that never come.
			clear(perPart)
			vs.keyPart = slices.Grow(vs.keyPart[:0], n)[:n]
			for i, k := range vs.keys {
				sp := rt.KeyPartition(k)
				vs.keyPart[i] = int32(sp)
				perPart[sp]++
			}
			for sp := rt.ResidentPartitions(); sp < rt.Partitions; sp++ {
				if perPart[sp] > 0 { // these matches are written into the next chunk
					pt.spilled[sp] = append(pt.spilled[sp], spillSegment{
						chunk: len(res.Chunks), probes: make([]deferredProbe, 0, perPart[sp])})
				}
			}
			for i, k := range vs.keys {
				if sp := int(vs.keyPart[i]); rt.SpilledPartition(sp) {
					seg := &pt.spilled[sp][len(pt.spilled[sp])-1]
					seg.probes = append(seg.probes, deferredProbe{off: len(matchIdx), key: k})
					matchIdx = append(matchIdx, int32(i))
					matchPos = append(matchPos, 0)
					placeholders++
					continue
				}
				for _, rpos := range rt.Probe(k) {
					matchIdx = append(matchIdx, int32(i))
					matchPos = append(matchPos, rpos)
				}
			}
		} else {
			matchIdx, matchPos = rt.ProbeBatch(vs.keys, matchIdx, matchPos)
		}
		vs.matchIdx, vs.matchPos = matchIdx, matchPos
		pt.stats.Join.LeftProbes += int64(len(vs.keys))
		if len(matchIdx) == 0 {
			if observe {
				probe.Obs.add(0, time.Since(start).Nanoseconds())
			}
			continue
		}

		// Column-wise emission into one result chunk of the match count:
		// outer payload by match index, inner payload per strategy (dense
		// array, retained compressed minis, or the right position awaiting the
		// deferred batched fetch).
		out := res.AddChunk(len(matchIdx))
		for c := range probe.LeftCols {
			col, vals := out[c], vs.left[c]
			for j, i := range matchIdx {
				col[j] = vals[i]
			}
		}
		switch {
		case deferred:
			// Zeros for now, except the first payload column, which carries
			// the right positions to the deferred fetch.
			for c := range payload {
				if c == 0 {
					copy(out[base], matchPos)
				} else {
					clear(out[base+c])
				}
			}
		case rt.Strategy() == operators.RightMaterialized:
			for c := range payload {
				col := out[base+c]
				for j, rpos := range matchPos {
					col[j] = rt.DenseValue(c, rpos)
				}
			}
		default: // RightMultiColumn
			for c := range payload {
				if err := rt.GatherMinis(c, matchPos, out[base+c], &vs.minis); err != nil {
					return err
				}
			}
		}
		if !deferred {
			res.Seal()
		}
		// Placeholders are not output until pass B resolves them.
		matched := int64(len(matchIdx) - placeholders)
		pt.stats.Join.OutputTuples += matched
		if observe {
			probe.Obs.add(matched, time.Since(start).Nanoseconds())
		}
	}
	return nil
}

// gatherAt is the executor's DS3: it extracts a column's values at the
// surviving positions of one chunk — from the mini-column a scan of this
// chunk left in the multi-column when there is one (the multi-column
// optimization of Section 3.6: zero re-access), otherwise through the batched
// block-pinned gather, which touches only the blocks holding surviving
// positions instead of re-windowing the whole chunk.
func gatherAt(mc *multicol.MultiColumn, name string, col *storage.Column, desc positions.Set, dst []int64) ([]int64, error) {
	if mini, ok := mc.Mini(name); ok {
		return mini.Extract(dst, desc), nil
	}
	return col.GatherAt(desc, dst)
}

// joinDeferredFetch is the single-column strategy's post-join positional
// fetch: right positions emerge from the probe in left order, so no merge
// join on position is possible (Section 4.3) — but the fetch is batched, one
// unordered block-pinned gather (Column.GatherUnordered's, its window recycled
// from chunk to chunk) per result chunk and payload column over the chunk's
// right positions, written straight into the already-emitted chunk column.
// The positions sit in the first payload column (see runJoinProbeMorsel), so
// that column is fetched last, in place.
func (p *Plan) joinDeferredFetch(probe *Node, rt *operators.PartitionedTable, res *rows.Result, stats *RunStats, observe bool) error {
	deferred := rt.Strategy() == operators.RightSingleColumn || rt.DeferredPayload()
	if !deferred || len(rt.Payload()) == 0 {
		return nil
	}
	base := len(probe.LeftCols)
	start := obsStart(observe)
	var u encoding.Unordered
	for _, ch := range res.Chunks {
		pending := ch[base]
		if len(pending) == 0 {
			continue
		}
		for c := len(rt.Payload()) - 1; c >= 0; c-- {
			col := rt.DeferredCol(c)
			var err error
			if ch[base+c], err = u.Gather(ch[base+c][:0], pending, col.Extent(), col.GatherAt); err != nil {
				return err
			}
			stats.Join.DeferredFetches += int64(len(pending))
		}
	}
	obsNanos(&probe.Obs, start, observe)
	return nil
}
