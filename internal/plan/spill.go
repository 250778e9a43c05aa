package plan

import (
	"context"
	"fmt"
	"sort"

	"matstore/internal/operators"
	"matstore/internal/rows"
)

// This file is pass B of the Grace spill join: resolving the probes whose
// keys routed to spilled partitions. Pass A (the streaming probe morsels)
// emitted resident matches in the usual order and recorded each deferred
// probe with an anchor — the rows its partial had emitted at the moment the
// probe was seen. Since every outer row's matches come wholly from one
// partition, the in-memory output is exactly the base rows with each
// deferred probe's matches inserted at its anchor, in probe order, bucket
// positions ascending. Pass B loads each spilled partition once (bounded
// memory: one partition's hash table at a time), probes the deferred keys,
// and re-interleaves — which is why spilled results are byte-identical to
// the in-memory path at every budget and worker count.

// spillInsert is one deferred match awaiting re-insertion: seq orders probes
// globally (morsel order, then within-chunk key order), anchor is the global
// base-result row the matches precede, rpos the matched right position.
type spillInsert struct {
	seq    int
	anchor int64
	rpos   int64
}

// assembleSpillMatches resolves deferred probes partition-at-a-time and
// rebuilds the result with their matches inserted at the recorded anchors.
// Returns the new result and its aligned pending list (one deferred right
// position per row — in spill mode all payload is deferred).
func (p *Plan) assembleSpillMatches(ctx context.Context, probe *Node, rt *operators.PartitionedTable, res *rows.Result, parts []*partial, basePending []int64, stats *RunStats) (*rows.Result, []int64, error) {
	base := len(probe.LeftCols)

	// Concatenate the per-partial deferred probes in morsel order, converting
	// local anchors to global row numbers via each partial's emitted-row
	// count (stats.Join.OutputTuples counts exactly the rows the partial
	// emitted; parts[0].res is aliased by the merged result, so its row count
	// cannot be read after the merge).
	var keys, anchors []int64
	left := make([][]int64, base)
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
	if len(keys) == 0 {
		return res, basePending, nil
	}
	stats.Join.SpillProbes += int64(len(keys))

	// Group deferred probes by partition, then load each spilled partition
	// once and probe its keys. The partition table is dropped before the
	// next loads — the whole point of Grace probing.
	byPart := make(map[int][]int)
	for s, k := range keys {
		byPart[rt.KeyPartition(k)] = append(byPart[rt.KeyPartition(k)], s)
	}
	var inserts []spillInsert
	for pt := rt.ResidentPartitions(); pt < rt.Partitions; pt++ {
		seqs := byPart[pt]
		if len(seqs) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		tbl, err := rt.LoadSpilledPartition(pt)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range seqs {
			for _, rpos := range tbl[keys[s]] {
				inserts = append(inserts, spillInsert{seq: s, anchor: anchors[s], rpos: rpos})
			}
		}
	}
	if len(inserts) == 0 {
		return res, basePending, nil
	}
	// Stable by seq: matches of one probe keep their ascending bucket order,
	// probes at one anchor keep their key order.
	sort.SliceStable(inserts, func(i, j int) bool { return inserts[i].seq < inserts[j].seq })

	nb := int64(res.NumRows())
	if int64(len(basePending)) != nb {
		return nil, nil, fmt.Errorf("plan: spill pending misaligned: %d for %d rows", len(basePending), nb)
	}
	// The output size is known: allocate once (zeroed, so the inserted rows'
	// right payload awaits the deferred fetch like everyone else's) and store
	// by index.
	out := rows.NewResult(p.Spec.OutNames...)
	total := int(nb) + len(inserts)
	for c := range out.Cols {
		out.Cols[c] = make([]int64, total)
	}
	pending := make([]int64, total)
	// Anchors are non-decreasing in seq, so one walk interleaves everything.
	ii, w := 0, 0
	for g := int64(0); g <= nb; g++ {
		for ; ii < len(inserts) && inserts[ii].anchor == g; ii++ {
			ins := inserts[ii]
			for c := 0; c < base; c++ {
				out.Cols[c][w] = left[c][ins.seq]
			}
			pending[w] = ins.rpos
			w++
		}
		if g < nb {
			for c := range out.Cols {
				out.Cols[c][w] = res.Cols[c][g]
			}
			pending[w] = basePending[g]
			w++
		}
	}
	if ii != len(inserts) {
		return nil, nil, fmt.Errorf("plan: %d spill inserts unplaced", len(inserts)-ii)
	}
	stats.Join.OutputTuples += int64(len(inserts))
	stats.TuplesConstructed += int64(len(inserts))
	return out, pending, nil
}
