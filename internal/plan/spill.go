package plan

import (
	"context"
	"fmt"
	"slices"

	"matstore/internal/operators"
	"matstore/internal/rows"
)

// This file is pass B of the Grace spill join: resolving the probes whose
// keys routed to spilled partitions. Pass A (the streaming probe morsels)
// emitted resident matches in the usual order and recorded each deferred
// probe with an anchor — the rows its partial had emitted at the moment the
// probe was seen. Since every outer row's matches come wholly from one
// partition, the in-memory output is exactly the base rows with each
// deferred probe's matches inserted at its anchor, in probe order, right
// positions ascending. Pass B loads each spilled partition once (bounded
// memory: one partition's hash table at a time), probes the deferred keys,
// and re-interleaves — which is why spilled results are byte-identical to
// the in-memory path at every budget and worker count.

// assembleSpillMatches resolves deferred probes partition-at-a-time and
// rebuilds the result with their matches inserted at the recorded anchors. In
// spill mode all payload is deferred, so every row — base or inserted —
// carries its right position in the first right-payload column (see
// runJoinProbeMorsel) for joinDeferredFetch.
func (p *Plan) assembleSpillMatches(ctx context.Context, probe *Node, rt *operators.PartitionedTable, res *rows.Result, parts []*partial, stats *RunStats) (*rows.Result, error) {
	base := len(probe.LeftCols)

	// Concatenate the per-partial deferred probes in morsel order (sized from
	// the partials' lengths), converting local anchors to global row numbers
	// via each partial's emitted-row count (stats.Join.OutputTuples counts
	// exactly the rows the partial emitted; parts[0].res is aliased by the
	// merged result, so its row count cannot be read after the merge). A
	// probe's index in this concatenation is its seq: morsel order, then
	// within-chunk key order — the order its matches must appear in.
	n := 0
	for _, pt := range parts {
		n += len(pt.spillKeys)
	}
	if n == 0 {
		return res, nil
	}
	stats.Join.SpillProbes += int64(n)
	keys, anchors := make([]int64, 0, n), make([]int64, 0, n)
	left := make([][]int64, base)
	for c := range left {
		left[c] = make([]int64, 0, n)
	}
	var offset int64
	for _, pt := range parts {
		for _, a := range pt.spillAnchors {
			anchors = append(anchors, offset+a)
		}
		keys = append(keys, pt.spillKeys...)
		for c := 0; c < base && pt.spillLeft != nil; c++ {
			left[c] = append(left[c], pt.spillLeft[c]...)
		}
		offset += pt.stats.Join.OutputTuples
	}

	// Group the probes by partition with a counting pass: bySeq[starts[pt]:
	// starts[pt+1]] lists partition pt's probes in seq order.
	starts := make([]int, rt.Partitions+1)
	for _, k := range keys {
		starts[rt.KeyPartition(k)+1]++
	}
	for pt := range rt.Partitions {
		starts[pt+1] += starts[pt]
	}
	bySeq := make([]int, n)
	next := slices.Clone(starts[:rt.Partitions])
	for s, k := range keys {
		pt := rt.KeyPartition(k)
		bySeq[next[pt]] = s
		next[pt]++
	}

	// Load each spilled partition once and probe its keys; the partition
	// table is dropped before the next loads — the whole point of Grace
	// probing — so the matched positions are staged, with each probe's
	// (offset, count) into the staging array. One match per probe is what a
	// unique inner key yields; more just grows the array.
	staged := make([]int64, 0, n)
	stagedOff, stagedCnt := make([]int, n), make([]int, n)
	for pt := rt.ResidentPartitions(); pt < rt.Partitions; pt++ {
		probes := bySeq[starts[pt]:starts[pt+1]]
		if len(probes) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tbl, err := rt.LoadSpilledPartition(pt)
		if err != nil {
			return nil, err
		}
		for _, s := range probes {
			matches := tbl.Probe(keys[s])
			stagedOff[s], stagedCnt[s] = len(staged), len(matches)
			for _, rpos := range matches { // short lists: cheaper than a bulk append
				staged = append(staged, rpos)
			}
		}
	}
	if len(staged) == 0 {
		return res, nil
	}

	// The output size is known: allocate once (zeroed, so the inserted rows'
	// right payload awaits the deferred fetch like everyone else's) and store
	// by index. Anchors are non-decreasing in seq, so one walk over the
	// probes in seq order interleaves everything — base rows up to the
	// probe's anchor, then its matches: a probe's matches keep their
	// ascending position order, probes at one anchor their key order.
	nb := res.NumRows()
	out := rows.NewResult(p.Spec.OutNames...)
	for c := range out.Cols {
		out.Cols[c] = make([]int64, nb+len(staged))
	}
	g, w := 0, 0 // base rows consumed, output rows written
	copyBase := func(upto int) {
		for c := range out.Cols {
			copy(out.Cols[c][w:], res.Cols[c][g:upto])
		}
		w += upto - g
		g = upto
	}
	for s, cnt := range stagedCnt {
		if cnt == 0 {
			continue
		}
		if a := int(anchors[s]); a != g {
			if a < g || a > nb {
				return nil, fmt.Errorf("plan: spill probe %d anchored at row %d, outside [%d,%d]", s, a, g, nb)
			}
			copyBase(a)
		}
		// Matches per probe are few: plain loops, not bulk copies.
		for c := 0; c < base; c++ {
			v, col := left[c][s], out.Cols[c][w:w+cnt]
			for j := range col {
				col[j] = v
			}
		}
		if len(out.Cols) > base {
			matches, col := staged[stagedOff[s]:], out.Cols[base][w:w+cnt]
			for j := range col {
				col[j] = matches[j]
			}
		}
		w += cnt
	}
	copyBase(nb)
	stats.Join.OutputTuples += int64(len(staged))
	stats.TuplesConstructed += int64(len(staged))
	return out, nil
}
