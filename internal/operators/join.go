package operators

import "fmt"

// RightStrategy selects how the inner (right) table is materialized for a
// hash join, matching the three curves of Figure 13.
type RightStrategy uint8

const (
	// RightMaterialized constructs right tuples before the join (EM): every
	// payload column is decompressed at build time into row-addressable
	// arrays, so a probe match reads its payload with a direct index.
	RightMaterialized RightStrategy = iota
	// RightMultiColumn sends the right table as multi-columns: payload
	// mini-columns are retained compressed in memory, and values are
	// extracted as probes match (the hybrid of Section 4.3).
	RightMultiColumn
	// RightSingleColumn sends only the join-predicate column (pure LM): the
	// join emits right positions, and payloads are fetched after the join
	// by jumping to out-of-order positions in the stored column — the extra
	// non-merge positional join the paper charges this strategy for.
	RightSingleColumn
)

func (s RightStrategy) String() string {
	switch s {
	case RightMaterialized:
		return "right-materialized"
	case RightMultiColumn:
		return "right-multicolumn"
	case RightSingleColumn:
		return "right-singlecolumn"
	default:
		return fmt.Sprintf("right-strategy(%d)", uint8(s))
	}
}

// ParseRightStrategy converts a string (as used by CLI flags) to a
// RightStrategy.
func ParseRightStrategy(s string) (RightStrategy, error) {
	switch s {
	case "right-materialized", "materialized", "em":
		return RightMaterialized, nil
	case "right-multicolumn", "multicolumn", "mc":
		return RightMultiColumn, nil
	case "right-singlecolumn", "singlecolumn", "lm", "sc":
		return RightSingleColumn, nil
	default:
		return 0, fmt.Errorf("operators: unknown right strategy %q", s)
	}
}

// JoinStats reports join-side work counters.
type JoinStats struct {
	// LeftProbes is the number of left tuples passing the left predicate
	// and probed against the hash table.
	LeftProbes int64
	// Workers is the effective probe-phase worker count.
	Workers int
	// Morsels is the number of outer-table morsels probed.
	Morsels int
	// OutputTuples is the number of join result tuples.
	OutputTuples int64
	// RightBuildTuples is the number of right tuples constructed at build.
	RightBuildTuples int64
	// DeferredFetches is the number of out-of-order position jumps into
	// stored right columns (single-column strategy only).
	DeferredFetches int64
	// Partitions is the radix partition count of the hash build.
	Partitions int
	// BuildWorkers and BuildMorsels describe the parallel build phase.
	BuildWorkers int
	BuildMorsels int
	// BuildCacheHit reports that the build phase was satisfied from a shared
	// retained build (the build cache) instead of scanning the inner table.
	BuildCacheHit bool
	// Spilled reports a Grace spill-mode run: the build ran under a byte
	// budget with SpilledParts partitions on disk (SpillBytes total) and all
	// right payload deferred to the stored columns. SpillProbes counts the
	// probes resolved partition-at-a-time from spilled partitions.
	Spilled      bool
	SpilledParts int
	SpillBytes   int64
	SpillProbes  int64
	// SpillWriteNanos is the wall time the build spent writing spill frames
	// (trace/slow-log attribution of disk time vs hash time).
	SpillWriteNanos int64
}
