package service

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"matstore"
	"matstore/internal/operators"
)

// merge is how a fan-out's partials combine: the kind the "merge" span and
// the per-kind metrics name it by, the counter that records it (nil for the
// plain concat), what every partial must carry, and the fold. Each of the four
// folds starts from mergedHeader, folds every partial's counters with
// sumPartCounters, and differs only in how the rows combine. Partials arrive
// decoded from the wire as columns (one chunk each, row ids last), and the
// folds keep them columns.
type merge struct {
	kind  string
	count *atomic.Int64
	// width is the column count every partial must have (0: any, but all
	// alike); rowIDs, whether each must carry row ids.
	width  int
	rowIDs bool
	fold   func(parts []*answer, limit int) *answer
}

// check refuses a decoded partial that does not fit the merge: row ids
// missing or unasked for, or columns other than the merge's or the first
// partial's.
func (m merge) check(p, first *answer) error {
	switch {
	case (p.rowID >= 0) != m.rowIDs:
		return fmt.Errorf("row ids sent: %t, asked for: %t", p.rowID >= 0, m.rowIDs)
	case m.width > 0 && len(p.Columns) != m.width:
		return fmt.Errorf("%d columns, want %d", len(p.Columns), m.width)
	case first != nil && !slices.Equal(p.Columns, first.Columns):
		return errors.New("columns differ from the other shards'")
	}
	return nil
}

// mergedHeader starts a merged response: the first partial's schema and
// strategy, no rows yet, and the cache-hit flags set so that sumPartCounters
// can AND every partial's into them.
func mergedHeader(parts []*answer) *answer {
	return &answer{QueryResponse: QueryResponse{
		Columns:        parts[0].Columns,
		Strategy:       parts[0].Strategy,
		ResultCacheHit: true,
		BuildCacheHit:  true,
	}, rowID: -1}
}

// sumPartCounters folds one shard partial's counters into the merged
// response: row counts, checksums and execution counters add, queue time
// takes the max (shards queue concurrently), cache-hit flags AND, spill
// flags OR.
func sumPartCounters(out, p *answer) {
	out.RowCount += p.RowCount
	out.Checksum += p.Checksum
	out.Workers += p.Workers
	out.Morsels += p.Morsels
	if p.Queued > out.Queued {
		out.Queued = p.Queued
	}
	out.EstCostUS += p.EstCostUS
	out.ResultCacheHit = out.ResultCacheHit && p.ResultCacheHit
	out.BuildCacheHit = out.BuildCacheHit && p.BuildCacheHit
	out.Partitions += p.Partitions
	out.Probes += p.Probes
	out.BuildTuples += p.BuildTuples
	out.DeferredFetches += p.DeferredFetches
	out.ReservedBytes += p.ReservedBytes
	out.Spilled = out.Spilled || p.Spilled
	out.SpilledPartitions += p.SpilledPartitions
	out.SpillBytes += p.SpillBytes
}

// mergeRowParts merges selection/join partials: rows concatenate in shard
// order (shard order is global row order) truncated to the limit — each
// partial's columns are listed as one more chunk, never copied. Each shard's
// checksum folds ALL its output rows, so the sum equals the single-engine
// fold.
func mergeRowParts(parts []*answer, limit int) *answer {
	out := mergedHeader(parts)
	for _, p := range parts {
		take := p.n
		if limit > 0 {
			take = min(take, limit-out.n)
		}
		if take > 0 {
			out.chunks = append(out.chunks, p.chunks...)
			out.n += take
		}
		sumPartCounters(out, p)
	}
	return out
}

// mergeRowIDParts merges key-partitioned selection/join partials: each
// shard's rows are a global-order subsequence tagged with global row ids,
// so a k-way merge by ascending row id restores exactly the global row
// order (every global row lives on exactly one shard — ids never collide
// across partials).
func mergeRowIDParts(parts []*answer, limit int) *answer {
	return mergeSorted(parts, limit, func(p *answer) []int64 { return p.column(p.rowID) })
}

// mergeFinalizedAggParts merges a partition-key aggregation: group keys are
// disjoint across shards and each shard emits its finalized rows sorted by
// key, so a k-way merge on the group-key column restores the global key order
// — no statistics shipped, no AbsorbGroups pass, and the payload is the final
// rows instead of per-group sum/count/min/max. Row counts and checksums add
// exactly because no group spans two shards.
func mergeFinalizedAggParts(parts []*answer, limit int) *answer {
	return mergeSorted(parts, limit, func(p *answer) []int64 { return p.column(0) })
}

// mergeSorted merges partials whose rows each ascend by key(p), a key no two
// partials share, k-way into one chunk of at most limit rows (0: all) in
// global key order. It stops at the limit.
func mergeSorted(parts []*answer, limit int, key func(*answer) []int64) *answer {
	type cursor struct {
		p    *answer
		keys []int64
		i    int
	}
	out := mergedHeader(parts)
	cur := make([]cursor, len(parts))
	total := 0
	for k, p := range parts {
		cur[k] = cursor{p: p, keys: key(p)}
		total += p.n
		sumPartCounters(out, p)
	}
	if limit > 0 {
		total = min(total, limit)
	}
	cols := newChunk(total, len(out.Columns))
	for i := range total {
		best := -1
		for k := range cur {
			if c := &cur[k]; c.i < len(c.keys) && (best < 0 || c.keys[c.i] < cur[best].keys[cur[best].i]) {
				best = k
			}
		}
		b := &cur[best]
		for c, col := range cols {
			col[i] = b.p.chunks[0][c][b.i]
		}
		b.i++
	}
	out.chunks, out.n = append(out.chunks, cols), total
	return out
}

// mergeAggParts merges aggregation partials: every shard's exported
// per-group statistics are absorbed into one fresh Aggregator — the wire
// form of the executor's Aggregator.Merge — and re-emitted sorted by key,
// identical to aggregating the un-sharded table. The re-emitted groups
// replace the partials' rows, counts and checksums: they are sealed and
// rendered by baseResponse exactly as an engine's result is.
func mergeAggParts(parts []*answer, fn operators.AggFunc, limit int) *answer {
	agg := operators.NewAggregator(fn)
	out := mergedHeader(parts)
	for _, p := range parts {
		agg.AbsorbGroups(p.Groups)
		sumPartCounters(out, p)
	}
	res := agg.Emit(out.Columns[0], out.Columns[1])
	res.Seal()
	shown := baseResponse(res, &matstore.Stats{}, Info{}, limit)
	out.chunks, out.n, out.RowCount, out.Checksum = shown.chunks, shown.n, shown.RowCount, shown.Checksum
	return out
}
