// Package datasource implements the four data-source operator cases of
// Section 3.2 of the paper, as chunk-at-a-time operators over stored
// columns:
//
//	DS1 — scan a column, apply a predicate, produce positions.
//	DS2 — scan a column, apply a predicate, produce (position, value) pairs.
//	DS3 — given a position list, produce the corresponding values, either
//	      from an already-materialized mini-column (the multi-column
//	      optimization, zero re-access I/O) or by re-accessing the column.
//	      Query execution makes that choice per chunk and column where it
//	      has the multi-column at hand (internal/plan's gatherAt), so DS3
//	      has no operator type here.
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
	Col *storage.Column
	// Conj is the conjunction, compiled when the plan was built.
	Conj *pred.Conj
}

// NewDS1 returns the scan of col under the compiled conjunction c.
func NewDS1(col *storage.Column, c *pred.Conj) *DS1 {
	return &DS1{Col: col, Conj: c}
}

// ScanChunk reads the chunk window and applies the conjunction.
func (ds *DS1) ScanChunk(r positions.Range) (positions.Set, encoding.MiniColumn, error) {
	mc, err := ds.Col.Window(r)
	if err != nil {
		return nil, nil, err
	}
	return mc.Filter(ds.Conj), mc, nil
}

// DS2 scans a column and produces, per chunk, early-materialized
// (position, value) pairs for the values satisfying the predicate
// conjunction. This is the EM leaf: values are glued to positions immediately
// (the TIC_TUP cost in the model's Case 2).
type DS2 struct {
	Col *storage.Column
	// Conj is the conjunction, compiled when the plan was built.
	Conj *pred.Conj
}

// NewDS2 returns the scan of col under the compiled conjunction c.
func NewDS2(col *storage.Column, c *pred.Conj) *DS2 {
	return &DS2{Col: col, Conj: c}
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
	ps := mc.Filter(ds.Conj)
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

// DS4 widens early-materialized tuples (Case 4): for each input tuple it
// jumps to the tuple's position in this column, applies the predicate
// conjunction, and emits the input tuple extended with this column's value
// when it passes. A DS4 belongs to one morsel: it holds the selection mask of
// the chunk it last widened.
type DS4 struct {
	Col *storage.Column
	// Conj is the conjunction, compiled when the plan was built (an empty one
	// accepts every value, so the tuples widen unconditionally); its kernel
	// evaluates all k predicates over the gathered values.
	Conj *pred.Conj
	// mask is the recycled selection mask: bit i says whether tuple i of the
	// batch being widened survives. Valid only until the next chunk.
	mask []uint64
}

// NewDS4 returns the widening of tuples by col under the compiled
// conjunction c.
func NewDS4(col *storage.Column, c *pred.Conj) *DS4 {
	return &DS4{Col: col, Conj: c}
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
	ds.Conj.Kernel(vals, ds.mask)
	b.Pos = b.Pos[:kernels.CompactByMask(b.Pos, b.Pos, ds.mask, 0)]
	for j, col := range b.Cols[:c] {
		b.Cols[j] = col[:kernels.CompactByMask(col, col, ds.mask, 0)]
	}
	b.Cols[c] = vals[:kernels.CompactByMask(vals, vals, ds.mask, 0)]
	return nil
}
