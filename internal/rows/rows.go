// Package rows defines the materialized-tuple containers exchanged by
// early-materialization operators and returned as query results. A Batch is
// a block of constructed tuples in columnar layout (position column plus one
// value column per materialized attribute) — the "intermediate tuple
// representation" that EM plans build up one attribute at a time.
package rows

import (
	"fmt"

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
//
// The rows are held as the chunks they were emitted in. Each emission site
// knows its chunk's row count before it stores a value, so it asks for one
// chunk of exactly that many rows (AddChunk) and fills it; partial results
// merge by listing each other's chunks (AppendChunks). No output column is
// ever regrown, concatenated or copied on the way.
type Result struct {
	Columns []string
	// Chunks lists the kept rows in output order: Chunks[k][c] is column c of
	// chunk k, and every column of a chunk has the same length.
	Chunks [][][]int64
	// Total is the number of rows produced and Sums[c] the wrapping sum of
	// column c over all of them, as of the last Seal; Chunks holds the first
	// NumRows() <= Total of those rows.
	Total int64
	Sums  []int64
	// sealed is how many leading chunks Total and Sums already cover.
	sealed int
	// spare is a chunk Seal dropped past the cap: its arrays are what the next
	// AddChunk writes into, so a capped run does not allocate a chunk per chunk.
	spare [][]int64
}

// NewResult allocates an empty result with the given output schema.
func NewResult(columns ...string) *Result {
	return &Result{Columns: columns, Sums: make([]int64, len(columns))}
}

// chunkRows is the row count of one chunk (0 for a result without columns).
func chunkRows(ch [][]int64) int {
	if len(ch) == 0 {
		return 0
	}
	return len(ch[0])
}

// NumRows returns the number of rows held (Total is the number produced).
func (r *Result) NumRows() int {
	n := 0
	for _, ch := range r.Chunks {
		n += chunkRows(ch)
	}
	return n
}

// AddChunk lists a new chunk of n rows after the last one and returns its
// columns, each exactly n long, for the caller to fill before the next Seal.
// The arrays are the spare chunk's when it has room, fresh ones otherwise.
func (r *Result) AddChunk(n int) [][]int64 {
	ch := r.spare
	r.spare = nil
	if ch == nil {
		ch = make([][]int64, len(r.Columns))
	}
	for c := range ch {
		if cap(ch[c]) >= n {
			ch[c] = ch[c][:n]
		} else {
			ch[c] = make([]int64, n)
		}
	}
	r.Chunks = append(r.Chunks, ch)
	return ch
}

// Seal folds the chunks added since the last Seal into Total and Sums — each
// value read once, while the chunk that produced it is still in cache — and
// then cuts the list at limit rows (limit <= 0 keeps every row): the chunk
// that crosses the cap is shortened, and a chunk wholly past it is unlisted
// and kept as the spare, so an emission site that seals after every chunk
// writes the next chunk into the same memory.
func (r *Result) Seal(limit int) {
	for _, ch := range r.Chunks[r.sealed:] {
		for c, col := range ch {
			r.Sums[c] += kernels.SumColumn(col)
		}
		r.Total += int64(chunkRows(ch))
	}
	r.sealed = len(r.Chunks)
	if limit <= 0 {
		return
	}
	held := 0
	for k, ch := range r.Chunks {
		if held >= limit {
			r.spare = ch
			clear(r.Chunks[k:]) // an unlisted chunk must not stay reachable
			r.Chunks, r.sealed = r.Chunks[:k], k
			return
		}
		if n := chunkRows(ch); held+n > limit {
			for c := range ch {
				ch[c] = ch[c][:limit-held]
			}
		}
		held += chunkRows(ch)
	}
}

// Checksum returns the wrapping sum of every value of every row produced.
func (r *Result) Checksum() int64 {
	var sum int64
	for _, s := range r.Sums {
		sum += s
	}
	return sum
}

// Clip moves each chunk column that fills less than half of its array into
// one of its own size, and lets the spare chunk go. A capped result is written
// through chunk-sized arrays; this is what lets them go when the run ends
// instead of living as long as the few rows kept.
func (r *Result) Clip() {
	r.spare = nil
	for _, ch := range r.Chunks {
		for c, col := range ch {
			if cap(col) > 2*len(col) {
				ch[c] = append(make([]int64, 0, len(col)), col...)
			}
		}
	}
}

// Column returns output column c in one array: the chunk's own when there is
// one chunk, otherwise an exact-size copy (nil when no row is held). It is for
// tests and library callers; the executor never concatenates a result.
func (r *Result) Column(c int) []int64 {
	if len(r.Chunks) == 1 {
		return r.Chunks[0][c]
	}
	n := r.NumRows()
	if n == 0 {
		return nil
	}
	out := make([]int64, 0, n)
	for _, ch := range r.Chunks {
		out = append(out, ch[c]...)
	}
	return out
}

// Col returns the values of the named output column (see Column).
func (r *Result) Col(name string) ([]int64, error) {
	for i, n := range r.Columns {
		if n == name {
			return r.Column(i), nil
		}
	}
	return nil, fmt.Errorf("rows: result has no column %q", name)
}

// AppendChunks lists another result's chunks after r's — the rows-domain
// merge of the morsel-parallel executor — and adds its Total and Sums; no row
// is copied, and the two results share the chunks from then on. Partial
// results are merged in morsel order (ascending starting position), which
// reproduces the row order of a sequential scan; chunks of o not yet sealed
// stay unsealed.
func (r *Result) AppendChunks(o *Result) error {
	if len(o.Columns) != len(r.Columns) {
		return fmt.Errorf("rows: append arity %d, want %d", len(o.Columns), len(r.Columns))
	}
	for i, n := range o.Columns {
		if r.Columns[i] != n {
			return fmt.Errorf("rows: append column %d is %q, want %q", i, n, r.Columns[i])
		}
	}
	if o.sealed > 0 {
		r.Seal(0) // sealed chunks stay a prefix
	}
	if r.sealed == len(r.Chunks) {
		r.sealed += o.sealed
	}
	r.Chunks = append(r.Chunks, o.Chunks...)
	r.Total += o.Total
	for i, s := range o.Sums {
		r.Sums[i] += s
	}
	return nil
}

// Row materializes row i (mainly for tests and display).
func (r *Result) Row(i int) []int64 {
	for _, ch := range r.Chunks {
		if n := chunkRows(ch); i >= n {
			i -= n
			continue
		}
		out := make([]int64, len(ch))
		for c, col := range ch {
			out[c] = col[i]
		}
		return out
	}
	panic(fmt.Sprintf("rows: row %d out of range", i))
}
