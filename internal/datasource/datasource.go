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

// conj is a predicate conjunction over one column, compiled once when its
// data source is constructed (once per morsel) and applied to every chunk.
type conj struct {
	// preds is the pred.SimplifyConj form, never empty: interval predicates
	// collapse into one, so only Ne residue keeps it k-ary.
	preds []pred.Predicate
	// fused is the k-ary conjunction kernel (pred.CompileFused) when more
	// than one predicate is left: all k are evaluated in a single pass over
	// each loaded chunk instead of k scans ANDed downstream.
	fused pred.Kernel
}

func compileConj(ps []pred.Predicate) conj {
	c := conj{preds: pred.SimplifyConj(ps)}
	if len(c.preds) > 1 {
		c.fused = pred.CompileFused(c.preds)
	}
	return c
}

// filter returns the positions of mc whose values satisfy the conjunction.
func (c conj) filter(mc encoding.MiniColumn) positions.Set {
	if len(c.preds) == 1 {
		return mc.Filter(c.preds[0])
	}
	return encoding.FilterFusedKernel(mc, c.preds, c.fused)
}

// DS1 scans a column and produces, per chunk, the positions whose values
// satisfy the predicate conjunction, along with the chunk's mini-column (so
// the caller can attach it to a multi-column for later value extraction).
type DS1 struct {
	Col *storage.Column
	conj
}

// NewDS1 compiles the scan of col under the conjunction preds (none matches
// every value).
func NewDS1(col *storage.Column, preds []pred.Predicate) *DS1 {
	return &DS1{Col: col, conj: compileConj(preds)}
}

// ScanChunk reads the chunk window and applies the predicate(s).
func (ds *DS1) ScanChunk(r positions.Range) (positions.Set, encoding.MiniColumn, error) {
	mc, err := ds.Col.Window(r)
	if err != nil {
		return nil, nil, err
	}
	return ds.filter(mc), mc, nil
}

// DS2 scans a column and produces, per chunk, early-materialized
// (position, value) pairs for the values satisfying the predicate
// conjunction. This is the EM leaf: values are glued to positions immediately
// (the TIC_TUP cost in the model's Case 2).
type DS2 struct {
	Col *storage.Column
	conj
}

// NewDS2 compiles the scan of col under the conjunction preds (none matches
// every value).
func NewDS2(col *storage.Column, preds []pred.Predicate) *DS2 {
	return &DS2{Col: col, conj: compileConj(preds)}
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
	ps := ds.filter(mc)
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
// re-access penalty of Section 2.2). Query execution makes that choice per
// chunk and column where it has the multi-column at hand (internal/plan's
// gatherAt: the retained mini's Extract, else storage.Column.GatherAt).
type DS3 struct {
	Col *storage.Column
}

// ValuesReaccess re-reads the chunk window from the column and extracts the
// values at ps. It is the retained scalar reference for the re-access path.
func (ds DS3) ValuesReaccess(r positions.Range, ps positions.Set, dst []int64) ([]int64, error) {
	mc, err := ds.Col.Window(r)
	if err != nil {
		return nil, err
	}
	return mc.Extract(dst, ps), nil
}

// DS4 widens early-materialized tuples (Case 4): for each input tuple it
// jumps to the tuple's position in this column, applies the predicate
// conjunction, and emits the input tuple extended with this column's value
// when it passes. A DS4 belongs to one morsel: it holds the selection mask of
// the chunk it last widened.
type DS4 struct {
	Col *storage.Column
	// Preds is the conjunction as given (none widens unconditionally); kernel
	// its one compiled form, evaluating all k predicates over the gathered
	// values.
	Preds  []pred.Predicate
	kernel pred.Kernel
	// mask is the recycled selection mask: bit i says whether tuple i of the
	// batch being widened survives. Valid only until the next chunk.
	mask []uint64
}

// NewDS4 compiles the widening of tuples by col under the conjunction preds.
func NewDS4(col *storage.Column, preds []pred.Predicate) *DS4 {
	return &DS4{Col: col, Preds: preds, kernel: pred.CompileFused(preds)}
}

// ExtendChunk processes one input batch against the chunk's mini-column.
// The returned batch carries the input attributes plus colName. It is the
// retained scalar reference path (one ValueAt jump and one Predicate.Match
// dispatch per predicate per tuple, a fresh batch per call); query execution
// uses ExtendChunkBatched, which the tests hold to this one.
func (ds *DS4) ExtendChunk(mc encoding.MiniColumn, in *rows.Batch, colName string) *rows.Batch {
	out := rows.NewBatch(append(append([]string{}, in.Names...), colName)...)
	last := len(out.Cols) - 1
	for i := 0; i < in.Len(); i++ {
		pos := in.Pos[i]
		v := mc.ValueAt(pos)
		if !pred.MatchConj(ds.Preds, v) {
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
	ds.mask = kernels.GrowMask(ds.mask, len(vals))
	ds.kernel(vals, ds.mask)
	b.Pos = b.Pos[:kernels.CompactByMask(b.Pos, b.Pos, ds.mask, 0)]
	for j, col := range b.Cols[:c] {
		b.Cols[j] = col[:kernels.CompactByMask(col, col, ds.mask, 0)]
	}
	b.Cols[c] = vals[:kernels.CompactByMask(vals, vals, ds.mask, 0)]
	return nil
}
