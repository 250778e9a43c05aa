package model

import (
	"matstore/internal/operators"
	"matstore/internal/plan"
)

// This file is the memory half of the cost model: where cost.go predicts the
// paper's time terms, EstimateJoinMemory predicts the resident bytes a join's
// blocking hash-build side will pin, from the same column statistics. The
// price walk charges it at the JOINBUILD node (Estimate.BuildBytes), and a
// served join's byte reservation is that number — an over-estimate wastes
// budget headroom, an under-estimate risks the OOM the governor exists to
// prevent, so the formula mirrors the build's actual accounting
// (PartitionedTable.memBytes) term by term.

// Sizing constants mirroring the build's resident-footprint accounting
// (operators.FlatTable), in the form operators.DenseKeys picks. A dense key
// domain takes a 4-byte offset per domain value, plus one closing offset per
// partition holding any of the domain — at most one more per value, so the
// model charges 8, which keeps the estimate at or above the built table at
// any partition count. A hashed one takes 16-byte slots per distinct key in a
// power-of-two array kept at most half full, so between 32 and 64 bytes — the
// model charges the 64, which keeps the estimate at or above the built table
// and within twice it whatever the rounding. Every tuple takes one 8-byte
// entry in the positions array; a materialized payload column one dense int64
// per tuple; and the multi-column strategy retains its compressed blocks.
const (
	bytesPerDomainValue = 8
	bytesPerDistinctKey = 64
	bytesPerPosition    = 8
	bytesPerDenseValue  = 8
	bytesPerBlock       = 64 * 1024
)

// EstimateJoinMemory predicts the resident heap bytes of a partitioned hash
// build over an inner key column (its tuple and distinct counts) and payload
// columns (their block counts), under one materialization strategy:
//
//	right-materialized: hash entries + one dense array per payload column;
//	right-multicolumn: hash entries + every payload block retained compressed;
//	right-singlecolumn: hash entries only (payload stays on disk, fetched
//	  by the deferred positional join).
//
// The hash entries are the key's table: per domain value [Min, Max] when the
// domain is dense, per distinct key otherwise, where a distinct count <= 0
// falls back to tuples (unique-key worst case for the slot array). The
// estimate is what admission reserves for an in-memory grant, and what the
// spill planner divides by the partition count to pick the resident share.
func EstimateJoinMemory(key plan.ColStats, payload []plan.ColStats, rs operators.RightStrategy) int64 {
	tuples, distinct := int64(key.Tuples), key.Distinct
	if tuples <= 0 {
		return 0
	}
	if distinct <= 0 || distinct > tuples {
		distinct = tuples
	}
	bytes := distinct*bytesPerDistinctKey + tuples*bytesPerPosition
	if operators.DenseKeys(key.Min, key.Max, tuples) {
		bytes = (key.Max-key.Min+1)*bytesPerDomainValue + tuples*bytesPerPosition
	}
	switch rs {
	case operators.RightMaterialized:
		bytes += tuples * bytesPerDenseValue * int64(len(payload))
	case operators.RightMultiColumn:
		for _, c := range payload {
			bytes += int64(c.Blocks) * bytesPerBlock
		}
	}
	return bytes
}
