// Package datasource implements the four data-source operator cases of
// Section 3.2 of the paper, as chunk-at-a-time operators over stored
// columns:
//
//	DS1 — scan a column, apply a predicate, produce positions.
//	DS2 — scan a column, apply a predicate, produce (position, value) pairs.
//	DS3 — given a position list, produce the corresponding values, either
//	      from an already-materialized mini-column (the multi-column
//	      optimization, zero re-access I/O) or by re-accessing the column.
//	DS4 — given early-materialized tuples, jump to each position, apply a
//	      predicate, and widen the tuples that pass.
//
// All data sources work one chunk (horizontal partition) at a time; the
// executor in internal/core drives them across the position space.
package datasource

import (
	"fmt"
	"slices"

	"matstore/internal/encoding"
	"matstore/internal/kernels"
	"matstore/internal/positions"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
)

// DefaultChunkSize is the default horizontal-partition width in positions.
// It must be a multiple of 64 so bit-vector windows and bitmap descriptors
// stay word-aligned.
const DefaultChunkSize = 1 << 16

// Chunker enumerates the aligned chunks of a column extent.
type Chunker struct {
	extent positions.Range
	size   int64
}

// NewChunker partitions extent into chunks of the given size (which must be
// a positive multiple of 64).
func NewChunker(extent positions.Range, size int64) Chunker {
	if size <= 0 || size%64 != 0 {
		panic(fmt.Sprintf("datasource: chunk size %d must be a positive multiple of 64", size))
	}
	return Chunker{extent: extent, size: size}
}

// NumChunks returns the number of chunks.
func (c Chunker) NumChunks() int {
	if c.extent.Empty() {
		return 0
	}
	return int((c.extent.Len() + c.size - 1) / c.size)
}

// Chunk returns the position range of chunk i.
func (c Chunker) Chunk(i int) positions.Range {
	start := c.extent.Start + int64(i)*c.size
	end := start + c.size
	if end > c.extent.End {
		end = c.extent.End
	}
	return positions.Range{Start: start, End: end}
}

// DS1 scans a column and produces, per chunk, the positions whose values
// satisfy the predicate conjunction, along with the chunk's mini-column (so
// the caller can attach it to a multi-column for later value extraction).
type DS1 struct {
	Col  *storage.Column
	Pred pred.Predicate
	// Preds, when non-empty, is a fused predicate conjunction replacing Pred:
	// all k predicates are evaluated in a single pass over each loaded chunk
	// (pred.CompileFused) instead of k scans ANDed downstream. Callers should
	// pass the pred.SimplifyConj form so interval conjunctions collapse to
	// one predicate and stay eligible for the zone-index fast path.
	Preds []pred.Predicate
	// ForceBitmap requests bitmap position output regardless of shape (the
	// position-representation ablation).
	ForceBitmap bool
	// UseZoneIndex derives positions from the block index's min/max zones
	// where possible (Section 2.1.1), reading only straddling blocks. When
	// the fast path applies, no mini-column is produced (the values were
	// never accessed) and the returned mini-column is nil.
	UseZoneIndex bool
	// fused caches the compiled k-ary conjunction kernel (CompilePreds).
	fused pred.Kernel
}

// CompilePreds caches the fused conjunction kernel so per-chunk ScanChunk
// calls skip recompilation. Call it once per morsel after constructing the
// DS1; a nil receiver state recompiles lazily.
func (ds *DS1) CompilePreds() {
	if len(ds.Preds) > 1 {
		ds.fused = pred.CompileFused(ds.Preds)
	}
}

// pred1 returns the single effective predicate and true when the data source
// is not running a k-ary fused conjunction.
func (ds *DS1) pred1() (pred.Predicate, bool) {
	switch len(ds.Preds) {
	case 0:
		return ds.Pred, true
	case 1:
		return ds.Preds[0], true
	default:
		return pred.Predicate{}, false
	}
}

// ScanChunk reads the chunk window and applies the predicate(s). The
// returned mini-column is nil when the zone-index fast path resolved the
// predicate without materializing the window.
func (ds *DS1) ScanChunk(r positions.Range) (positions.Set, encoding.MiniColumn, error) {
	if ds.UseZoneIndex {
		if p, single := ds.pred1(); single {
			ps, used, err := ds.Col.ZonePositions(r, p)
			if err != nil {
				return nil, nil, err
			}
			if used {
				return ds.forceBitmap(ps, r.Intersect(ds.Col.Extent())), nil, nil
			}
		} else if ps, used, err := ds.zoneFusedScan(r); err != nil {
			return nil, nil, err
		} else if used {
			return ds.forceBitmap(ps, r.Intersect(ds.Col.Extent())), nil, nil
		}
	}
	mc, err := ds.Col.Window(r)
	if err != nil {
		return nil, nil, err
	}
	var ps positions.Set
	if p, single := ds.pred1(); single {
		ps = mc.Filter(p)
	} else {
		k := ds.fused
		if k == nil {
			k = pred.CompileFused(ds.Preds)
		}
		ps = encoding.FilterFusedKernel(mc, ds.Preds, k)
	}
	return ds.forceBitmap(ps, mc.Covering()), mc, nil
}

// zoneFusedScan is the zone-index path for a fused conjunction of one
// interval predicate plus Ne residue (the only multi-predicate shape
// pred.SimplifyConj leaves): the interval part derives positions from the
// block zones exactly as the single-predicate path does, and when the
// survivors are sparse the residue is applied by a batched block-pinned
// gather of just their values — so fusion keeps the zone index's block
// skipping instead of regressing to a full window scan. Dense survivor
// sets fall back to the window + fused-kernel path (used=false), which is
// cheaper than gathering most of the chunk.
func (ds *DS1) zoneFusedScan(r positions.Range) (positions.Set, bool, error) {
	if _, _, ok := ds.Preds[0].Interval(); !ok {
		return nil, false, nil // pure-Ne conjunction: zones carry no information
	}
	for _, p := range ds.Preds[1:] {
		if p.Op != pred.Ne {
			return nil, false, nil
		}
	}
	ps, used, err := ds.Col.ZonePositions(r, ds.Preds[0])
	if err != nil || !used {
		return nil, used, err
	}
	n := ps.Count()
	window := r.Intersect(ds.Col.Extent())
	if n == 0 {
		return positions.Empty{}, true, nil
	}
	if n*4 > window.Len() {
		return nil, false, nil // dense: let the fused window scan handle it
	}
	vals, err := ds.Col.GatherAt(ps, make([]int64, 0, n))
	if err != nil {
		return nil, false, err
	}
	match := pred.CompileFusedMatcher(ds.Preds[1:])
	b := positions.NewBuilder(window)
	i := 0
	it := ps.Runs()
	for {
		run, ok := it.Next()
		if !ok {
			break
		}
		runStart := int64(-1)
		for p := run.Start; p < run.End; p++ {
			if match(vals[i]) {
				if runStart < 0 {
					runStart = p
				}
			} else if runStart >= 0 {
				b.AddRange(positions.Range{Start: runStart, End: p})
				runStart = -1
			}
			i++
		}
		if runStart >= 0 {
			b.AddRange(positions.Range{Start: runStart, End: run.End})
		}
	}
	return b.Build(), true, nil
}

// forceBitmap applies the position-representation ablation to a scan's
// output set.
func (ds *DS1) forceBitmap(ps positions.Set, extent positions.Range) positions.Set {
	if ds.ForceBitmap && ps.Kind() != positions.KindBitmap && ps.Kind() != positions.KindEmpty {
		return positions.ToBitmap(ps, extent)
	}
	return ps
}

// DS2 scans a column and produces, per chunk, early-materialized
// (position, value) pairs for the values satisfying the predicate. This is
// the EM leaf: values are glued to positions immediately (the TIC_TUP cost
// in the model's Case 2).
type DS2 struct {
	Col  *storage.Column
	Pred pred.Predicate
	// Preds, when non-empty, is a fused predicate conjunction replacing Pred
	// (see DS1.Preds): one pass over the chunk evaluates all k predicates.
	Preds []pred.Predicate
	// fused caches the compiled conjunction kernel (CompilePreds).
	fused pred.Kernel
}

// CompilePreds caches the fused conjunction kernel so per-chunk calls skip
// recompilation. Call it once per morsel after constructing the DS2.
func (ds *DS2) CompilePreds() {
	if len(ds.Preds) > 1 {
		ds.fused = pred.CompileFused(ds.Preds)
	}
}

// ScanChunk refills batch with the chunk's early-materialized tuples:
// positions in Pos, this column's values in attribute 0, every later
// attribute emptied for the DS4 nodes above to widen. The batch's buffers are
// recycled, so what an earlier chunk left in it is gone.
func (ds *DS2) ScanChunk(r positions.Range, batch *rows.Batch) error {
	mc, err := ds.Col.Window(r)
	if err != nil {
		return err
	}
	var ps positions.Set
	switch len(ds.Preds) {
	case 0:
		ps = mc.Filter(ds.Pred)
	case 1:
		ps = mc.Filter(ds.Preds[0])
	default:
		k := ds.fused
		if k == nil {
			k = pred.CompileFused(ds.Preds)
		}
		ps = encoding.FilterFusedKernel(mc, ds.Preds, k)
	}
	batch.Reset()
	batch.Cols[0] = mc.Extract(batch.Cols[0], ps)
	batch.Pos = slices.Grow(batch.Pos, len(batch.Cols[0]))[:len(batch.Cols[0])]
	expandPositions(batch.Pos, ps)
	return nil
}

// expandPositions writes the members of ps, ascending, over pos, which must
// be ps.Count() long: a bit-string's words expand directly, any other
// representation run by run.
func expandPositions(pos []int64, ps positions.Set) {
	if bm, ok := ps.(*positions.Bitmap); ok {
		kernels.PositionsFromMask(pos, bm.Start(), bm.Words(), int(bm.NBits()))
		return
	}
	w := 0
	for it := ps.Runs(); ; {
		run, ok := it.Next()
		if !ok {
			return
		}
		kernels.FillRun(pos[w:w+int(run.Len())], run.Start)
		w += int(run.Len())
	}
}

// DS3 produces values for a list of positions (Case 3). With the
// multi-column optimization the values come from an in-memory mini-column
// and the I/O cost is zero; without it the column is re-accessed through
// the buffer pool (warm, but paying the CPU cost of re-scanning — the LM
// re-access penalty of Section 2.2).
type DS3 struct {
	Col *storage.Column
}

// ValuesFromMini extracts the values at ps from an attached mini-column.
func (DS3) ValuesFromMini(mc encoding.MiniColumn, ps positions.Set, dst []int64) []int64 {
	return mc.Extract(dst, ps)
}

// ValuesReaccess re-reads the chunk window from the column and extracts the
// values at ps. It is the retained scalar reference for the re-access path;
// query execution uses ValuesGather.
func (ds DS3) ValuesReaccess(r positions.Range, ps positions.Set, dst []int64) ([]int64, error) {
	mc, err := ds.Col.Window(r)
	if err != nil {
		return nil, err
	}
	return mc.Extract(dst, ps), nil
}

// ValuesGather re-accesses the stored column through the batched
// block-pinned gather: only the blocks containing surviving positions are
// touched (a window re-read decodes every block overlapping the chunk), each
// pinned once with a tight per-encoding copy loop.
func (ds DS3) ValuesGather(ps positions.Set, dst []int64) ([]int64, error) {
	return ds.Col.GatherAt(ps, dst)
}

// DS4 widens early-materialized tuples (Case 4): for each input tuple it
// jumps to the tuple's position in this column, applies the predicate, and
// emits the input tuple extended with this column's value when it passes.
// A DS4 belongs to one morsel: it holds the selection mask of the chunk it
// last widened.
type DS4 struct {
	Col  *storage.Column
	Pred pred.Predicate
	// Preds, when non-empty, is a fused predicate conjunction replacing Pred:
	// one compiled kernel evaluates all k predicates over the gathered values.
	Preds []pred.Predicate
	// kernel is the cached compiled form of the predicate(s) (see CompilePred).
	kernel pred.Kernel
	// mask is the recycled selection mask: bit i says whether tuple i of the
	// batch being widened survives. Valid only until the next chunk.
	mask []uint64
}

// ExtendChunk processes one input batch against the chunk's mini-column.
// The returned batch carries the input attributes plus colName. It is the
// retained scalar reference path (one ValueAt jump and one Predicate.Match
// dispatch per tuple, a fresh batch per call); query execution uses
// ExtendChunkBatched, which the tests hold to this one.
func (ds *DS4) ExtendChunk(mc encoding.MiniColumn, in *rows.Batch, colName string) *rows.Batch {
	out := rows.NewBatch(append(append([]string{}, in.Names...), colName)...)
	last := len(out.Cols) - 1
	for i := 0; i < in.Len(); i++ {
		pos := in.Pos[i]
		v := mc.ValueAt(pos)
		if !ds.Pred.Match(v) {
			continue
		}
		out.Pos = append(out.Pos, pos)
		for c := range in.Cols {
			out.Cols[c] = append(out.Cols[c], in.Cols[c][i])
		}
		out.Cols[last] = append(out.Cols[last], v)
	}
	return out
}

// ExtendChunkBatched widens the batch's tuples in place with attribute c
// (attributes 0..c-1 are filled, c is the next recycled buffer): one batched
// block-pinned gather of this column's values at the batch's positions
// (ascending and distinct within a chunk) lands in attribute c, the compiled
// predicate evaluates it into the selection mask, and Pos and attributes 0..c
// are each compacted forward through the mask, one column at a time. There is
// no second buffer, and a chunk that loses no tuple copies nothing.
func (ds *DS4) ExtendChunkBatched(b *rows.Batch, c int) error {
	vals, err := ds.Col.GatherAt(positions.List(b.Pos), b.Cols[c][:0])
	if err != nil {
		return err
	}
	if ds.kernel == nil {
		ds.CompilePred()
	}
	ds.mask = kernels.GrowMask(ds.mask, len(vals))
	ds.kernel(vals, ds.mask)
	b.Pos = b.Pos[:kernels.CompactByMask(b.Pos, b.Pos, ds.mask)]
	for j, col := range b.Cols[:c] {
		b.Cols[j] = col[:kernels.CompactByMask(col, col, ds.mask)]
	}
	b.Cols[c] = vals[:kernels.CompactByMask(vals, vals, ds.mask)]
	return nil
}

// CompilePred caches the compiled form of the predicate(s) so per-chunk
// calls skip recompilation. Call it once after constructing the DS4.
func (ds *DS4) CompilePred() {
	if len(ds.Preds) > 0 {
		ds.kernel = pred.CompileFused(ds.Preds)
	} else {
		ds.kernel = pred.Compile(ds.Pred)
	}
}
