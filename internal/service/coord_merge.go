package service

import (
	"sort"
	"sync/atomic"

	"matstore"
	"matstore/internal/operators"
)

// merge is how a fan-out's partials combine: the kind the "merge" span and
// the per-kind metrics name it by, the counter that records it (nil for the
// plain concat) and the fold. Each of the four folds starts from
// mergedHeader, folds every partial's counters with sumPartCounters, and
// differs only in how the rows combine.
type merge struct {
	kind  string
	count *atomic.Int64
	fold  func(parts []*QueryResponse, limit int) *QueryResponse
}

// mergedHeader starts a merged response: the first partial's schema and
// strategy, no rows yet, and the cache-hit flags set so that sumPartCounters
// can AND every partial's into them.
func mergedHeader(parts []*QueryResponse) *QueryResponse {
	return &QueryResponse{
		Columns:        parts[0].Columns,
		Strategy:       parts[0].Strategy,
		Rows:           [][]int64{},
		ResultCacheHit: true,
		PlanCacheHit:   true,
		BuildCacheHit:  true,
	}
}

// sumPartCounters folds one shard partial's counters into the merged
// response: row counts, checksums and execution counters add, queue time
// takes the max (shards queue concurrently), cache-hit flags AND, spill
// flags OR.
func sumPartCounters(out, p *QueryResponse) {
	out.RowCount += p.RowCount
	out.Checksum += p.Checksum
	out.Workers += p.Workers
	out.Morsels += p.Morsels
	if p.Queued > out.Queued {
		out.Queued = p.Queued
	}
	out.EstCostUS += p.EstCostUS
	out.ResultCacheHit = out.ResultCacheHit && p.ResultCacheHit
	out.PlanCacheHit = out.PlanCacheHit && p.PlanCacheHit
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
// order (shard order is global row order) truncated to the limit. Each
// shard's checksum folds ALL its output rows, so the sum equals the
// single-engine fold.
func mergeRowParts(parts []*QueryResponse, limit int) *QueryResponse {
	out := mergedHeader(parts)
	for _, p := range parts {
		take := p.Rows
		if limit > 0 {
			if room := limit - len(out.Rows); len(take) > room {
				take = take[:room]
			}
		}
		out.Rows = append(out.Rows, take...)
		sumPartCounters(out, p)
	}
	return out
}

// mergeRowIDParts merges key-partitioned selection/join partials: each
// shard's rows are a global-order subsequence tagged with global row ids,
// so a k-way merge by ascending row id restores exactly the global row
// order (every global row lives on exactly one shard — ids never collide
// across partials).
func mergeRowIDParts(parts []*QueryResponse, limit int) *QueryResponse {
	out := mergedHeader(parts)
	idx := make([]int, len(parts))
	for limit <= 0 || len(out.Rows) < limit {
		best := -1
		for p, part := range parts {
			if idx[p] >= len(part.Rows) || idx[p] >= len(part.RowIDs) {
				continue
			}
			if best < 0 || part.RowIDs[idx[p]] < parts[best].RowIDs[idx[best]] {
				best = p
			}
		}
		if best < 0 {
			break
		}
		out.Rows = append(out.Rows, parts[best].Rows[idx[best]])
		idx[best]++
	}
	for _, p := range parts {
		sumPartCounters(out, p)
	}
	return out
}

// mergeFinalizedAggParts merges a partition-key aggregation: group keys are
// disjoint across shards, so the shards' finalized rows (each sorted by
// key) concat in shard order and one coordinator-side sort by the group-key
// column restores the global key order — no statistics shipped, no
// AbsorbGroups pass, and the payload is the final rows instead of
// per-group sum/count/min/max. Row counts and checksums add exactly
// because no group spans two shards.
func mergeFinalizedAggParts(parts []*QueryResponse, limit int) *QueryResponse {
	out := mergedHeader(parts)
	for _, p := range parts {
		out.Rows = append(out.Rows, p.Rows...)
		sumPartCounters(out, p)
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i][0] < out.Rows[j][0] })
	if limit > 0 && len(out.Rows) > limit {
		out.Rows = out.Rows[:limit]
	}
	return out
}

// mergeAggParts merges aggregation partials: every shard's exported
// per-group statistics are absorbed into one fresh Aggregator — the wire
// form of the executor's Aggregator.Merge — and re-emitted sorted by key,
// identical to aggregating the un-sharded table. The re-emitted groups
// replace the partials' rows, counts and checksums: they are sealed and
// rendered by baseResponse exactly as an engine's result is.
func mergeAggParts(parts []*QueryResponse, fn operators.AggFunc, limit int) *QueryResponse {
	agg := operators.NewAggregator(fn)
	out := mergedHeader(parts)
	for _, p := range parts {
		agg.AbsorbGroups(p.Groups)
		sumPartCounters(out, p)
	}
	res := agg.Emit(out.Columns[0], out.Columns[1])
	res.Seal(0)
	shown := baseResponse(res, &matstore.Stats{}, Info{}, limit)
	out.Rows, out.RowCount, out.Checksum = shown.Rows, shown.RowCount, shown.Checksum
	return out
}
