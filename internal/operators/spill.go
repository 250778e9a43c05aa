package operators

import (
	"context"
	"fmt"

	"matstore/internal/datasource"
	"matstore/internal/faults"
	"matstore/internal/storage"
)

// This file is the Grace spill path of the radix join build. When the memory
// governor denies an in-memory reservation, the build runs under a byte
// budget: partitions that fit stay resident (FlatTables, as in the in-memory
// build), and the rest are cold — the build only counts their entries. A cold
// partition is its stored key column: every (key, position) pair it would hold
// can be derived again by scanning that column, since the build side has no
// predicate. Pass B (see internal/plan) rebuilds one cold partition at a time
// by rescanning the key column with the build's own per-chunk partitioning
// scan (scanChunk), keeping only that partition. Nothing is written to disk.
// The probe handles resident partitions inline and cold partitions
// partition-at-a-time afterwards, reproducing the exact output order of the
// in-memory path, so spilled results are byte-identical at every budget and
// worker count.
//
// In spill mode ALL right-payload access is deferred to the stored column
// files (forced late materialization), for the same reason: the payload
// already lives on disk in compressed block form.
//
// A cold partition rebuilt for pass B is built by the same newFlatTable the
// in-memory build uses, and like it is read-only and owns the positions array
// its Probe results alias: the caller of LoadSpilledPartition keeps no probe
// result past dropping the table.

// SpillConfig parameterizes one spill-mode build.
type SpillConfig struct {
	// BudgetBytes bounds the resident (in-memory) share of the build.
	BudgetBytes int64
	// EstBytes is the predicted full in-memory size: the join plan's priced
	// build-side bytes (model.Estimate.BuildBytes, EstimateJoinMemory over the
	// JOINBUILD node's statistics). The resident partition count is
	// BudgetBytes / (EstBytes / partitions).
	EstBytes int64
}

// buildEntryBytes is the size of one (key, position) buildEntry.
const buildEntryBytes = 16

// spillState marks a table as spill-built: partitions >= resident are cold,
// rebuilt from the key column on demand, and all payload access is deferred
// to the stored columns.
type spillState struct {
	resident int
	key      *storage.Column
	counts   []int64 // by partition: the entries the build counted (cold only)
}

// DeferredPayload reports whether this table was built in spill mode, where
// every right-payload value is fetched post-merge from the stored columns.
// Such a table lives only as long as the run that built it: it must never be
// reused or cached across runs.
func (rt *PartitionedTable) DeferredPayload() bool { return rt.spill != nil }

// SpilledPartition reports whether partition pt is cold.
func (rt *PartitionedTable) SpilledPartition(pt int) bool {
	return rt.spill != nil && pt >= rt.spill.resident
}

// ResidentPartitions returns the number of in-memory partitions (equals
// Partitions for non-spill builds).
func (rt *PartitionedTable) ResidentPartitions() int {
	if rt.spill == nil {
		return rt.Partitions
	}
	return rt.spill.resident
}

// KeyPartition returns the radix partition a key routes to.
func (rt *PartitionedTable) KeyPartition(key int64) int { return int(HashKey(key) & rt.mask) }

// LoadSpilledPartition rebuilds cold partition pt's hash table by rescanning
// the key column in position order, so every key's positions come out
// ascending — the order the in-memory build produces. ctx is checked between
// chunks, and a rescan that finds a different entry count than the build
// counted is an error. The caller probes the table and drops it before
// loading the next partition (partition-at-a-time).
func (rt *PartitionedTable) LoadSpilledPartition(ctx context.Context, pt int) (*FlatTable, error) {
	if !rt.SpilledPartition(pt) {
		return nil, fmt.Errorf("partition %d is resident", pt)
	}
	if err := faults.Check("spill.read"); err != nil {
		return nil, fmt.Errorf("spill.read: %w", err)
	}
	key, want := rt.spill.key, rt.spill.counts[pt]
	entries := [][]buildEntry{make([]buildEntry, 0, want)}
	ch := datasource.NewChunker(key.Extent(), rt.chunkSize)
	var keyBuf []int64
	for ci := 0; ci < ch.NumChunks(); ci++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if keyBuf, err = rt.scanChunk(key, ch.Chunk(ci), keyBuf, entries, pt, nil); err != nil {
			return nil, err
		}
	}
	if got := int64(len(entries[0])); got != want {
		return nil, fmt.Errorf("spill partition %d: rescan found %d entries, the build counted %d", pt, got, want)
	}
	tbl, err := newFlatTable(entries[0])
	if err != nil {
		return nil, err
	}
	return &tbl, nil
}

// residentShare derives how many partitions fit the budget, assuming the
// estimate spreads evenly (radix hashing does).
func residentShare(partitions int, cfg SpillConfig) int {
	if cfg.BudgetBytes <= 0 {
		return 0
	}
	perPart := cfg.EstBytes / int64(partitions)
	if perPart < 1 {
		perPart = 1
	}
	resident := int(cfg.BudgetBytes / perPart)
	if resident > partitions {
		resident = partitions
	}
	if resident < 0 {
		resident = 0
	}
	return resident
}

// BuildPartitionedSpill is the budget-bounded BuildPartitioned: it scans only
// the key column (payload is deferred to the stored columns), keeps the first
// residentShare partitions as in-memory hash tables, and only counts the
// entries of the rest, which LoadSpilledPartition rebuilds from the key column.
func BuildPartitionedSpill(ctx context.Context, key *storage.Column, payloadCols []*storage.Column, payload []string, strat RightStrategy, chunkSize int64, workers, partitions int, cfg SpillConfig) (*PartitionedTable, error) {
	return buildPartitioned(ctx, key, payloadCols, payload, strat, chunkSize, workers, partitions, &cfg)
}
