package rows

import (
	"reflect"
	"slices"
	"testing"
)

func TestBatchBasics(t *testing.T) {
	b := NewBatch("a", "b")
	if b.Len() != 0 {
		t.Fatal("new batch not empty")
	}
	b.Append(10, 1, 2)
	b.Append(20, 3, 4)
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	av, err := b.Col("a")
	if err != nil || !reflect.DeepEqual(av, []int64{1, 3}) {
		t.Errorf("Col(a) = %v, %v", av, err)
	}
	bv, _ := b.Col("b")
	if !reflect.DeepEqual(bv, []int64{2, 4}) {
		t.Errorf("Col(b) = %v", bv)
	}
	if !reflect.DeepEqual(b.Pos, []int64{10, 20}) {
		t.Errorf("Pos = %v", b.Pos)
	}
	if _, err := b.Col("z"); err == nil {
		t.Error("missing column lookup succeeded")
	}
}

func TestBatchReset(t *testing.T) {
	b := NewBatch("a")
	b.Append(1, 5)
	b.Reset()
	if b.Len() != 0 {
		t.Error("Reset left tuples")
	}
	b.Append(2, 7)
	v, _ := b.Col("a")
	if !reflect.DeepEqual(v, []int64{7}) {
		t.Errorf("after reset+append: %v", v)
	}
}

func TestBatchAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong arity accepted")
		}
	}()
	NewBatch("a", "b").Append(0, 1)
}

// chunk lists the rows [from, to) of a two-column result whose row i is
// (i, 10i) as one chunk: what an emission site does between two seals.
func chunk(r *Result, from, to int64) {
	cols := r.AddChunk(int(to - from))
	for i := from; i < to; i++ {
		cols[0][i-from], cols[1][i-from] = i, 10*i
	}
}

// columns returns every column of r in one array each.
func columns(r *Result) [][]int64 {
	out := make([][]int64, len(r.Columns))
	for c := range out {
		out[c] = r.Column(c)
	}
	return out
}

func TestResultBasics(t *testing.T) {
	r := NewResult("x", "y")
	if r.NumRows() != 0 || r.Column(0) != nil {
		t.Fatal("new result not empty")
	}
	chunk(r, 1, 3)
	chunk(r, 3, 4)
	if r.NumRows() != 3 || len(r.Chunks) != 2 {
		t.Fatalf("NumRows = %d in %d chunks", r.NumRows(), len(r.Chunks))
	}
	if !reflect.DeepEqual(r.Row(1), []int64{2, 20}) || !reflect.DeepEqual(r.Row(2), []int64{3, 30}) {
		t.Errorf("Row(1) = %v, Row(2) = %v", r.Row(1), r.Row(2))
	}
	x, err := r.Col("x")
	if err != nil || !reflect.DeepEqual(x, []int64{1, 2, 3}) || cap(x) != 3 {
		t.Errorf("Col(x) = %v (cap %d), %v", x, cap(x), err)
	}
	if _, err := r.Col("nope"); err == nil {
		t.Error("missing column lookup succeeded")
	}
	// A chunk is exactly as long as asked for, and a lone chunk's column is
	// handed out as it is.
	one := NewResult("x")
	arr := one.AddChunk(4)
	if len(arr) != 1 || len(arr[0]) != 4 || cap(arr[0]) != 4 || &one.Column(0)[0] != &arr[0][0] {
		t.Errorf("AddChunk(4) = %v (cap %d); Column copies a lone chunk", arr, cap(arr[0]))
	}
}

func TestResultZeroColumns(t *testing.T) {
	r := NewResult()
	r.AddChunk(5)
	r.Seal(0)
	if r.NumRows() != 0 || r.Total != 0 {
		t.Errorf("zero-column result: rows=%d total=%d", r.NumRows(), r.Total)
	}
}

// TestResultAppendResult: merging lists the other result's chunks, copying
// no row.
func TestResultAppendResult(t *testing.T) {
	a, b := NewResult("x", "y"), NewResult("x", "y")
	chunk(a, 0, 2)
	chunk(b, 2, 3)
	if err := a.AppendChunks(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 3 || !reflect.DeepEqual(columns(a), [][]int64{{0, 1, 2}, {0, 10, 20}}) {
		t.Errorf("after AppendChunks: %v", columns(a))
	}
	if &a.Chunks[1][0][0] != &b.Chunks[0][0][0] {
		t.Error("AppendChunks copied the other result's rows")
	}
	// Appending an empty partial is a no-op.
	if err := a.AppendChunks(NewResult("x", "y")); err != nil || a.NumRows() != 3 || len(a.Chunks) != 2 {
		t.Errorf("empty append: rows=%d chunks=%d err=%v", a.NumRows(), len(a.Chunks), err)
	}
}

func TestResultAppendSchemaMismatch(t *testing.T) {
	a := NewResult("x", "y")
	if err := a.AppendChunks(NewResult("x")); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := a.AppendChunks(NewResult("x", "z")); err == nil {
		t.Error("column-name mismatch accepted")
	}
}

// TestResultSealFoldsAndCuts follows a capped partial over four chunks: the
// kept rows stop at the cap, the total and the sums cover every row, a chunk
// wholly past the cap is unlisted — nothing keeps it reachable — and its
// arrays are what the next chunk is written into.
func TestResultSealFoldsAndCuts(t *testing.T) {
	r := NewResult("i", "t")
	chunk(r, 0, 2)
	r.Seal(3)
	if r.NumRows() != 2 || r.Total != 2 || r.Sums[0] != 1 || r.Sums[1] != 10 {
		t.Fatalf("under the cap: rows=%d total=%d sums=%v", r.NumRows(), r.Total, r.Sums)
	}
	chunk(r, 2, 6)
	r.Seal(3)
	if !reflect.DeepEqual(columns(r), [][]int64{{0, 1, 2}, {0, 10, 20}}) || r.Total != 6 || r.Sums[0] != 15 || r.Sums[1] != 150 {
		t.Fatalf("across the cap: cols=%v total=%d sums=%v", columns(r), r.Total, r.Sums)
	}
	chunk(r, 6, 8)
	past := &r.Chunks[2][0][0]
	r.Seal(3)
	if len(r.Chunks) != 2 || r.Total != 8 {
		t.Fatalf("a chunk past the cap: %d chunks listed, total %d", len(r.Chunks), r.Total)
	}
	if tail := r.Chunks[len(r.Chunks):cap(r.Chunks)]; slices.ContainsFunc(tail, func(ch [][]int64) bool { return ch != nil }) {
		t.Error("an unlisted chunk is still reachable from the list's array")
	}
	chunk(r, 8, 9)
	if &r.Chunks[2][0][0] != past {
		t.Error("the chunk after an unlisted one did not reuse its arrays")
	}
	r.Seal(3)
	r.Seal(3) // sealing twice folds nothing twice
	if r.NumRows() != 3 || r.Total != 9 || r.Sums[0] != 36 || r.Sums[1] != 360 || r.Checksum() != 396 {
		t.Fatalf("past the cap: rows=%d total=%d sums=%v", r.NumRows(), r.Total, r.Sums)
	}
	r.Clip()
	if cap(r.Chunks[1][0]) != 1 || r.spare != nil || !reflect.DeepEqual(columns(r), [][]int64{{0, 1, 2}, {0, 10, 20}}) {
		t.Errorf("Clip: cap=%d spare=%v cols=%v", cap(r.Chunks[1][0]), r.spare != nil, columns(r))
	}
}

// TestResultSealUncapped: limit <= 0 keeps every row, and a column that fills
// most of its array is not copied by Clip.
func TestResultSealUncapped(t *testing.T) {
	for _, limit := range []int{0, -1} {
		r := NewResult("i", "t")
		chunk(r, 0, 5)
		r.Seal(limit)
		before := &r.Chunks[0][0][0]
		r.Clip()
		if r.NumRows() != 5 || r.Total != 5 || r.Sums[0] != 10 || &r.Chunks[0][0][0] != before {
			t.Errorf("limit %d: rows=%d total=%d sums=%v copied=%v", limit, r.NumRows(), r.Total, r.Sums, &r.Chunks[0][0][0] != before)
		}
	}
}

// TestResultAppendAddsTotals: merging sealed partials lists their kept chunks
// and adds what they counted, and chunks not yet sealed (a deferred join's)
// stay unsealed through the merge until one final Seal.
func TestResultAppendAddsTotals(t *testing.T) {
	a, b := NewResult("i", "t"), NewResult("i", "t")
	chunk(a, 0, 4)
	a.Seal(2)
	chunk(b, 4, 7)
	b.Seal(2)
	if err := a.AppendChunks(b); err != nil {
		t.Fatal(err)
	}
	a.Seal(2)
	if !reflect.DeepEqual(columns(a), [][]int64{{0, 1}, {0, 10}}) || a.Total != 7 || a.Sums[0] != 21 || a.Sums[1] != 210 {
		t.Errorf("sealed partials: cols=%v total=%d sums=%v", columns(a), a.Total, a.Sums)
	}

	c, d := NewResult("i", "t"), NewResult("i", "t")
	chunk(c, 0, 2)
	chunk(d, 2, 5)
	if err := c.AppendChunks(d); err != nil {
		t.Fatal(err)
	}
	if c.Total != 0 || c.NumRows() != 5 {
		t.Fatalf("unsealed partials: total=%d rows=%d before the seal", c.Total, c.NumRows())
	}
	c.Chunks[1][1][2] = 7 // the deferred fetch overwrites a column in place
	c.Seal(3)
	if c.NumRows() != 3 || c.Total != 5 || c.Sums[0] != 10 || c.Sums[1] != 67 {
		t.Errorf("unsealed partials: rows=%d total=%d sums=%v", c.NumRows(), c.Total, c.Sums)
	}

	// A sealed partial onto an unsealed one: nothing is folded twice or not at all.
	e, f := NewResult("i", "t"), NewResult("i", "t")
	chunk(e, 0, 2)
	chunk(f, 2, 4)
	f.Seal(0)
	if err := e.AppendChunks(f); err != nil {
		t.Fatal(err)
	}
	e.Seal(0)
	if e.Total != 4 || e.Sums[0] != 6 {
		t.Errorf("mixed partials: total=%d sums=%v", e.Total, e.Sums)
	}
}
