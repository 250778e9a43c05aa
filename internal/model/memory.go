package model

import "matstore/internal/operators"

// This file is the memory half of the cost model: where cost.go predicts the
// paper's time terms, EstimateJoinMemory predicts the resident bytes a join's
// blocking hash-build side will pin, from the same catalog statistics. The
// admission governor sizes byte reservations with it — an over-estimate
// wastes budget headroom, an under-estimate risks the OOM the governor
// exists to prevent, so the formula mirrors the build's actual accounting
// (PartitionedTable.memBytes) term by term.

// Sizing constants mirroring the build's resident-footprint accounting
// (operators.FlatTable): a distinct key takes 16-byte slots in a power-of-two
// array kept at most half full, so between 32 and 64 bytes — the model
// charges the 64, which keeps the estimate at or above the built table and
// within twice it whatever the rounding; every tuple takes one 8-byte entry
// in the positions array; a materialized payload column one dense int64 per
// tuple; and the multi-column strategy retains its compressed blocks.
const (
	bytesPerDistinctKey = 64
	bytesPerPosition    = 8
	bytesPerDenseValue  = 8
	bytesPerBlock       = 64 * 1024
)

// EstimateJoinMemory predicts the resident heap bytes of a partitioned hash
// build over an inner table with the given tuple count, distinct key count,
// and per-payload-column block counts, under one materialization strategy:
//
//	right-materialized: hash entries + one dense array per payload column;
//	right-multicolumn: hash entries + every payload block retained compressed;
//	right-singlecolumn: hash entries only (payload stays on disk, fetched
//	  by the deferred positional join).
//
// distinct <= 0 falls back to tuples (unique-key worst case for the slot
// array). The estimate is what admission reserves for an in-memory grant, and
// what the spill planner divides by the partition count to pick the resident
// share.
func EstimateJoinMemory(tuples, distinct int64, payloadBlocks []int64, rs operators.RightStrategy) int64 {
	if tuples <= 0 {
		return 0
	}
	if distinct <= 0 || distinct > tuples {
		distinct = tuples
	}
	bytes := distinct*bytesPerDistinctKey + tuples*bytesPerPosition
	switch rs {
	case operators.RightMaterialized:
		bytes += tuples * bytesPerDenseValue * int64(len(payloadBlocks))
	case operators.RightMultiColumn:
		for _, b := range payloadBlocks {
			bytes += b * bytesPerBlock
		}
	}
	return bytes
}
