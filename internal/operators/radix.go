package operators

import (
	"context"

	"matstore/internal/datasource"
	"matstore/internal/encoding"
	"matstore/internal/exec"
	"matstore/internal/positions"
	"matstore/internal/storage"
)

// This file is the radix-partitioned parallel hash build of the join's inner
// side. Workers scan the inner key column morsel-parallel, routing every
// (key, position) pair into a per-partition × per-morsel staging buffer by a
// radix of the key hash; a barrier later builds one FlatTable (flattable.go)
// per partition with no locks, each partition owned by exactly one worker.
// Because the buffers are indexed by morsel and taken in morsel order, every
// key's position list comes out in ascending position order — the order a
// serial scan produces — so probe results are byte-identical at every worker
// and partition count.
//
// The built PartitionedTable is read-only: its tables own the arrays that
// Probe results alias, so it may be shared by concurrent probes (and by the
// build cache across queries) without copying.

// HashKey mixes a join key into a full-width hash (the 64-bit finalizer of
// MurmurHash3). The low bits select the radix partition, so the mix must
// spread nearby keys — dense foreign-key domains are the common case.
func HashKey(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// PartitionOf maps a key to its shard under the key-partitioned storage
// layout (storage.PartitionHashName): HashKey reduced modulo the shard
// count. Modulo rather than a mask — shard counts need not be powers of
// two. Generation and coordination must agree on this function exactly, or
// co-partitioned joins would probe the wrong shard.
func PartitionOf(key int64, shards int) int {
	return int(HashKey(key) % uint64(shards))
}

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ResolvePartitions picks the radix partition count: an explicit override is
// rounded up to a power of two (the radix mask needs one); otherwise the
// next power of two of the worker count, so every build worker can own at
// least one partition during the lock-free table-build phase.
func ResolvePartitions(workers, override int) int {
	if override > 0 {
		return NextPow2(override)
	}
	if workers < 1 {
		workers = 1
	}
	return NextPow2(workers)
}

// PartitionedTable is the radix-partitioned inner side of a hash join: one
// hash table per partition, plus the per-strategy payload storage (dense
// arrays, retained mini-columns, or deferred column handles).
type PartitionedTable struct {
	strategy  RightStrategy
	payload   []string
	mask      uint64
	tables    []FlatTable
	dense     [][]int64               // RightMaterialized: payload[c][rightPos]
	chunks    [][]encoding.MiniColumn // RightMultiColumn: [chunk][payloadIdx]
	chunkSize int64
	cols      []*storage.Column // RightSingleColumn: deferred fetch targets

	// BuildTuples counts right tuples materialized during build.
	BuildTuples int64
	// Tuples is the inner table's tuple count (every build scans them all).
	Tuples int64
	// Partitions, BuildWorkers and BuildMorsels describe the build phase.
	Partitions   int
	BuildWorkers int
	BuildMorsels int
	// SizeBytes estimates the table's resident heap footprint (hash buckets
	// plus the per-strategy payload storage) — the accounting unit of the
	// shared build cache's memory budget.
	SizeBytes int64
	// SpilledParts and SpillBytes describe the Grace spill share of a
	// budget-bounded build (zero for fully in-memory builds): the cold
	// partitions, and the bytes of (key, position) entries the build left to
	// pass B to rebuild from the key column (16 per entry).
	SpilledParts int
	SpillBytes   int64

	// spill is non-nil for budget-bounded builds (see spill.go): partitions
	// past spill.resident are cold, rebuilt from the key column on demand,
	// and all payload access defers to the stored columns.
	spill *spillState
}

// Strategy returns the inner-table materialization strategy built.
func (rt *PartitionedTable) Strategy() RightStrategy { return rt.strategy }

// Payload returns the payload column names.
func (rt *PartitionedTable) Payload() []string { return rt.payload }

// Probe returns the right positions matching key in ascending position
// order (nil if none). The result is a sub-slice of the partition table's
// positions array — read-only, valid as long as the table. Safe for
// concurrent use: the tables are read-only after build.
func (rt *PartitionedTable) Probe(key int64) []int64 {
	h := HashKey(key)
	if m := rt.tables[h&rt.mask].probe(h, key); len(m) > 0 {
		return m[:len(m):len(m)] // an append by the caller must not reach the next key's positions
	}
	return nil
}

// ProbeBatch probes every key in one loop, appending one (index into keys,
// right position) pair per match to idx and pos: pairs ascend by key index,
// and by position within a key — the order per-key Probe calls would produce.
func (rt *PartitionedTable) ProbeBatch(keys []int64, idx []int32, pos []int64) ([]int32, []int64) {
	for i, k := range keys {
		h := HashKey(k)
		for _, rpos := range rt.tables[h&rt.mask].probe(h, k) {
			idx = append(idx, int32(i))
			pos = append(pos, rpos)
		}
	}
	return idx, pos
}

// DenseValue returns payload column c's value at a right position
// (RightMaterialized only).
func (rt *PartitionedTable) DenseValue(c int, pos int64) int64 { return rt.dense[c][pos] }

// GatherMinis writes payload column c's values at the right positions pos —
// one per match, in probe order, repeats allowed — over dst, which is as long
// as pos, out of the retained compressed mini-columns (RightMultiColumn only):
// the deferred fetch's batched gather (encoding.Unordered — a window extracted
// once and indexed, or one sorted extract), with each right chunk's mini-column
// answering for the positions it holds, instead of a ValueAt search per match.
// u is the probing morsel's, so its window is recycled from chunk to chunk.
func (rt *PartitionedTable) GatherMinis(c int, pos, dst []int64, u *encoding.Unordered) error {
	_, err := u.Gather(dst[:0], pos, positions.Range{End: rt.Tuples}, func(set positions.Set, vals []int64) ([]int64, error) {
		cov := set.Covering()
		for k := cov.Start / rt.chunkSize; k*rt.chunkSize < cov.End; k++ {
			vals = rt.chunks[k][c].Extract(vals, set) // a mini-column extracts the positions inside its window
		}
		return vals, nil
	})
	return err
}

// DeferredCol returns payload column c's stored-column handle for the
// post-join positional fetch (RightSingleColumn only).
func (rt *PartitionedTable) DeferredCol(c int) *storage.Column { return rt.cols[c] }

// buildEntry is one scanned (key, right position) pair awaiting its
// partition's table build.
type buildEntry struct {
	key, pos int64
}

// BuildPartitioned scans the inner key column (and, per strategy, its
// payload columns) morsel-parallel and builds the radix-partitioned hash
// side. workers is the resolved worker count; partitions <= 0 derives the
// partition count from it. The same chunkSize as the probe side keeps the
// multi-column chunk addressing aligned.
func BuildPartitioned(key *storage.Column, payloadCols []*storage.Column, payload []string, strat RightStrategy, chunkSize int64, workers, partitions int) (*PartitionedTable, error) {
	// The signature supplies no context: an in-memory build is not cancelled.
	return buildPartitioned(context.TODO(), key, payloadCols, payload, strat, chunkSize, workers, partitions, nil)
}

// buildPartitioned is the one build: the in-memory build is the Grace build
// with every partition resident. With cfg nil all p partitions stage in memory
// and the payload is loaded per the strategy; with a spill configuration the
// first residentShare partitions do, the entries of the rest are only counted
// (pass B rebuilds them from the key column), and only the key column is
// scanned (payload is deferred to the stored columns). Cancellation is
// observed between chunks.
func buildPartitioned(ctx context.Context, key *storage.Column, payloadCols []*storage.Column, payload []string, strat RightStrategy, chunkSize int64, workers, partitions int, cfg *SpillConfig) (*PartitionedTable, error) {
	extent := key.Extent()
	workers = max(workers, 1)
	p := ResolvePartitions(workers, partitions)
	rt := &PartitionedTable{
		strategy:  strat,
		payload:   payload,
		mask:      uint64(p - 1),
		tables:    make([]FlatTable, p),
		chunkSize: chunkSize,
		// Retain the stored-column handles for every strategy: the deferred
		// fetch (single-column, and every strategy in spill mode) needs them
		// at probe time.
		cols:       payloadCols,
		Tuples:     extent.Len(),
		Partitions: p,
	}
	resident := p
	if cfg != nil {
		resident = residentShare(p, *cfg)
		rt.spill = &spillState{resident: resident, key: key, counts: make([]int64, p)}
	} else {
		rt.allocPayload()
	}

	morsels := exec.Morsels(extent, chunkSize, workers)
	workers = max(min(workers, len(morsels)), 1)
	rt.BuildWorkers = workers
	rt.BuildMorsels = len(morsels)

	// Phase 1: morsel-parallel partitioning scan. Resident partitions buffer
	// per (partition, morsel) so phase 2 can take the buffers in morsel order,
	// which keeps every key's position list ascending; cold partitions are
	// only counted.
	staged := newStaging(resident, len(morsels))
	var cold [][]int64 // cold[morsel][partition]: the entries counted, not staged
	if resident < p {
		cold = make([][]int64, len(morsels))
	}
	err := exec.Run(workers, len(morsels), func(i int) error {
		bufs := stagingBuffers(resident, stagingShare(p, morsels[i].Len()))
		var counts []int64
		if cold != nil {
			counts = make([]int64, p)
			cold[i] = counts
		}
		ch := datasource.NewChunker(morsels[i], chunkSize)
		var keyBuf []int64
		for ci := 0; ci < ch.NumChunks(); ci++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			r := ch.Chunk(ci)
			var err error
			if keyBuf, err = rt.scanChunk(key, r, keyBuf, bufs, 0, counts); err != nil {
				return err
			}
			if cfg == nil {
				if err := rt.loadPayloadChunk(r); err != nil {
					return err
				}
			}
		}
		for pt := range bufs {
			staged[pt][i] = bufs[pt]
		}
		return nil
	})
	// Phase 2 (after the scan barrier): one hash table per resident
	// partition, built lock-free — each partition is owned by a single worker.
	if err == nil {
		err = rt.buildTables(workers, staged)
	}
	if err != nil {
		return nil, err
	}
	rt.SizeBytes = rt.memBytes()
	for _, counts := range cold {
		for pt, n := range counts {
			rt.spill.counts[pt] += n
			rt.SpillBytes += buildEntryBytes * n
		}
	}
	rt.SpilledParts = p - resident
	return rt, nil
}

// scanChunk is the partitioning scan of one chunk r of the key column, shared
// by the build and pass B's rebuild of a cold partition: it decompresses the
// chunk into keyBuf and routes every (key, position) pair by partition. The
// pairs of partitions lo to lo+len(bufs)-1 are appended to their buffers in
// position order; any other pair is only counted in cold (when not nil).
func (rt *PartitionedTable) scanChunk(key *storage.Column, r positions.Range, keyBuf []int64, bufs [][]buildEntry, lo int, cold []int64) ([]int64, error) {
	mc, err := key.Window(r)
	if err != nil {
		return keyBuf, err
	}
	keyBuf = mc.Decompress(keyBuf[:0])
	for j, k := range keyBuf {
		pt := int(HashKey(k)&rt.mask) - lo
		if uint(pt) < uint(len(bufs)) {
			bufs[pt] = append(bufs[pt], buildEntry{key: k, pos: r.Start + int64(j)})
		} else if cold != nil {
			cold[pt+lo]++
		}
	}
	return keyBuf, nil
}

// allocPayload allocates the in-memory payload storage the strategy fills at
// build time (none for the single-column strategy, which fetches after the
// join) and counts the right tuples it will hold as built.
func (rt *PartitionedTable) allocPayload() {
	switch rt.strategy {
	case RightMaterialized:
		// Construct right tuples at build (early materialization): each
		// payload column decompresses into one position-addressable array.
		rt.dense = make([][]int64, len(rt.cols))
		for c := range rt.cols {
			rt.dense[c] = make([]int64, rt.Tuples)
		}
		rt.BuildTuples = rt.Tuples
	case RightMultiColumn:
		// Retain the payload mini-columns, compressed, in memory.
		rt.chunks = make([][]encoding.MiniColumn, (rt.Tuples+rt.chunkSize-1)/rt.chunkSize)
	}
}

// loadPayloadChunk fills chunk r's share of the storage allocPayload made
// during the build scan. Chunks are morsel-aligned and disjoint, so
// concurrent morsels write disjoint ranges of the dense arrays and distinct
// chunk slots, with no locks.
func (rt *PartitionedTable) loadPayloadChunk(r positions.Range) error {
	switch rt.strategy {
	case RightMaterialized:
		for c, col := range rt.cols {
			pm, err := col.Window(r)
			if err != nil {
				return err
			}
			pm.Decompress(rt.dense[c][r.Start:r.Start:r.End])
		}
	case RightMultiColumn:
		minis := make([]encoding.MiniColumn, len(rt.cols))
		for c, col := range rt.cols {
			var err error
			if minis[c], err = col.Window(r); err != nil {
				return err
			}
		}
		rt.chunks[r.Start/rt.chunkSize] = minis
	}
	return nil
}

// newStaging allocates the phase-1 staging index: staged[partition][morsel]
// is the morsel's entries for that partition. Morsel workers fill disjoint
// elements, so no locks.
func newStaging(partitions, morsels int) [][][]buildEntry {
	staged := make([][][]buildEntry, partitions)
	for pt := range staged {
		staged[pt] = make([][]buildEntry, morsels)
	}
	return staged
}

// stagingShare is the capacity one partition's staging buffer gets for a
// morsel, so the scan appends without regrowth: the whole morsel at one
// partition, the even share plus an eighth (the radix hash spreads keys
// evenly; a hotter partition just grows) at more.
func stagingShare(partitions int, morselLen int64) int {
	if partitions <= 1 {
		return int(morselLen)
	}
	n := int(morselLen) / partitions
	return n + n/8 + 16
}

// stagingBuffers allocates n per-partition staging buffers of one capacity.
func stagingBuffers(n, capacity int) [][]buildEntry {
	bufs := make([][]buildEntry, n)
	for pt := range bufs {
		bufs[pt] = make([]buildEntry, 0, capacity)
	}
	return bufs
}

// buildTables is phase 2 of the build: one FlatTable per staged partition,
// each built by a single worker from its morsel-ordered staging buffers.
func (rt *PartitionedTable) buildTables(workers int, staged [][][]buildEntry) error {
	return exec.Run(workers, len(staged), func(pt int) (err error) {
		rt.tables[pt], err = newFlatTable(staged[pt]...)
		return err
	})
}

// memBytes is the built table's heap footprint: every partition's slot and
// positions arrays and the per-strategy payload storage. Deferred column
// handles (single-column) weigh nothing — they point at the stored files.
func (rt *PartitionedTable) memBytes() int64 {
	var b int64
	for i := range rt.tables {
		b += rt.tables[i].memBytes()
	}
	for _, col := range rt.dense {
		b += 8 * int64(len(col))
	}
	for _, minis := range rt.chunks {
		for _, m := range minis {
			if m != nil {
				b += m.MemBytes()
			}
		}
	}
	return b
}
