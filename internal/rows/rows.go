// Package rows defines the materialized-tuple containers exchanged by
// early-materialization operators and returned as query results. A Batch is
// a block of constructed tuples in columnar layout (position column plus one
// value column per materialized attribute) — the "intermediate tuple
// representation" that EM plans build up one attribute at a time.
package rows

import (
	"fmt"
	"slices"

	"matstore/internal/kernels"
)

// Batch is a set of (partially) constructed tuples: Pos[i] is the original
// column position of tuple i, and Cols[c][i] its value for the c-th
// materialized attribute. Names[c] labels attribute c.
//
// The plan executor recycles one batch per morsel: its data sources refill
// and widen the same buffers chunk after chunk (attributes the chain has not
// reached yet are empty), so a consumer handed a batch — or slices of it —
// must be done with them when it returns.
type Batch struct {
	Names []string
	Pos   []int64
	Cols  [][]int64
}

// NewBatch returns an empty batch with the given attribute names.
func NewBatch(names ...string) *Batch {
	return &Batch{Names: names, Cols: make([][]int64, len(names))}
}

// Len returns the number of tuples.
func (b *Batch) Len() int { return len(b.Pos) }

// Col returns the values of the named attribute.
func (b *Batch) Col(name string) ([]int64, error) {
	for i, n := range b.Names {
		if n == name {
			return b.Cols[i], nil
		}
	}
	return nil, fmt.Errorf("rows: batch has no column %q", name)
}

// HasCol reports whether the batch carries the named attribute.
func (b *Batch) HasCol(name string) bool {
	for _, n := range b.Names {
		if n == name {
			return true
		}
	}
	return false
}

// Append adds one tuple. vals must parallel Names.
func (b *Batch) Append(pos int64, vals ...int64) {
	if len(vals) != len(b.Cols) {
		panic(fmt.Sprintf("rows: Append got %d values, want %d", len(vals), len(b.Cols)))
	}
	b.Pos = append(b.Pos, pos)
	for i, v := range vals {
		b.Cols[i] = append(b.Cols[i], v)
	}
}

// Reset clears the batch for reuse, keeping capacity.
func (b *Batch) Reset() {
	b.Pos = b.Pos[:0]
	for i := range b.Cols {
		b.Cols[i] = b.Cols[i][:0]
	}
}

// Result is a query result in columnar layout: the leading rows of the output
// (all of them unless the run was capped) beside a count and per-column sums
// over every row the run produced. A reply's row count and checksum are made
// of the latter two, so a result that is only ever shown in part never has to
// exist in full.
type Result struct {
	Columns []string
	Cols    [][]int64
	// Total is the number of rows produced and Sums[c] the wrapping sum of
	// column c over all of them, as of the last Seal; Cols holds the first
	// NumRows() <= Total of those rows.
	Total int64
	Sums  []int64
	// sealed is how many rows of Cols Total and Sums already cover.
	sealed int
}

// NewResult allocates an empty result with the given output schema.
func NewResult(columns ...string) *Result {
	return &Result{Columns: columns, Cols: make([][]int64, len(columns)), Sums: make([]int64, len(columns))}
}

// NumRows returns the number of rows held (Total is the number produced).
func (r *Result) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return len(r.Cols[0])
}

// Seal folds the rows added since the last Seal into Total and Sums — each
// value read once, while the chunk that produced it is still in cache — and
// then drops the rows beyond limit (limit <= 0 keeps every row). The dropped
// rows' capacity stays, so an emission site that seals after every chunk
// writes the next chunk into the same memory.
func (r *Result) Seal(limit int) {
	n := r.NumRows()
	if n > r.sealed {
		for c, col := range r.Cols {
			r.Sums[c] += kernels.SumColumn(col[r.sealed:])
		}
		r.Total += int64(n - r.sealed)
	}
	if limit > 0 && n > limit {
		for c := range r.Cols {
			r.Cols[c] = r.Cols[c][:limit]
		}
		n = limit
	}
	r.sealed = n
}

// Checksum returns the wrapping sum of every value of every row produced.
func (r *Result) Checksum() int64 {
	var sum int64
	for _, s := range r.Sums {
		sum += s
	}
	return sum
}

// Clip moves each column that fills less than half of its array into one of
// its own size. A capped result is written through chunk-sized buffers; this
// is what lets them go when the run ends instead of living as long as the
// few rows kept.
func (r *Result) Clip() {
	for c, col := range r.Cols {
		if cap(col) > 2*len(col) {
			r.Cols[c] = append(make([]int64, 0, len(col)), col...)
		}
	}
}

// Reserve makes room for n more rows in every column, one allocation per
// column at most. Emission sites call it once per chunk with the row count
// they already know, so the stores that follow never grow a slice.
func (r *Result) Reserve(n int) {
	for i, c := range r.Cols {
		r.Cols[i] = slices.Grow(c, n)
	}
}

// Col returns the values of the named output column.
func (r *Result) Col(name string) ([]int64, error) {
	for i, n := range r.Columns {
		if n == name {
			return r.Cols[i], nil
		}
	}
	return nil, fmt.Errorf("rows: result has no column %q", name)
}

// Append concatenates another result with the same schema onto r — the
// rows-domain merge of the morsel-parallel executor — and adds its Total and
// Sums. Partial results are appended in morsel order (ascending starting
// position), which reproduces the row order of a sequential scan; rows of o
// not yet sealed stay unsealed.
func (r *Result) Append(o *Result) error {
	if len(o.Cols) != len(r.Cols) {
		return fmt.Errorf("rows: append arity %d, want %d", len(o.Cols), len(r.Cols))
	}
	for i, n := range o.Columns {
		if r.Columns[i] != n {
			return fmt.Errorf("rows: append column %d is %q, want %q", i, n, r.Columns[i])
		}
	}
	if o.sealed > 0 {
		r.Seal(0) // sealed rows stay a prefix
	}
	if r.sealed == r.NumRows() {
		r.sealed += o.sealed
	}
	for i := range r.Cols {
		r.Cols[i] = append(r.Cols[i], o.Cols[i]...)
	}
	r.Total += o.Total
	for i, s := range o.Sums {
		r.Sums[i] += s
	}
	return nil
}

// Row materializes row i (mainly for tests and display).
func (r *Result) Row(i int) []int64 {
	out := make([]int64, len(r.Cols))
	for c := range r.Cols {
		out[c] = r.Cols[c][i]
	}
	return out
}

// AppendRow adds one output tuple.
func (r *Result) AppendRow(vals ...int64) {
	if len(vals) != len(r.Cols) {
		panic(fmt.Sprintf("rows: AppendRow got %d values, want %d", len(vals), len(r.Cols)))
	}
	for i, v := range vals {
		r.Cols[i] = append(r.Cols[i], v)
	}
}
