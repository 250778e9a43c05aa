package rows

import (
	"reflect"
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
	if !b.HasCol("a") || b.HasCol("z") {
		t.Error("HasCol wrong")
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

func TestResultBasics(t *testing.T) {
	r := NewResult("x", "y")
	if r.NumRows() != 0 {
		t.Fatal("new result not empty")
	}
	r.AppendRow(1, 2)
	r.AppendRow(3, 4)
	if r.NumRows() != 2 {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
	if !reflect.DeepEqual(r.Row(1), []int64{3, 4}) {
		t.Errorf("Row(1) = %v", r.Row(1))
	}
	x, err := r.Col("x")
	if err != nil || !reflect.DeepEqual(x, []int64{1, 3}) {
		t.Errorf("Col(x) = %v, %v", x, err)
	}
	if _, err := r.Col("nope"); err == nil {
		t.Error("missing column lookup succeeded")
	}
}

func TestResultZeroColumns(t *testing.T) {
	r := NewResult()
	if r.NumRows() != 0 {
		t.Error("zero-column result rows != 0")
	}
}

func TestResultAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong arity accepted")
		}
	}()
	NewResult("x").AppendRow(1, 2)
}

func TestResultAppendResult(t *testing.T) {
	a := NewResult("x", "y")
	a.AppendRow(1, 10)
	a.AppendRow(2, 20)
	b := NewResult("x", "y")
	b.AppendRow(3, 30)
	if err := a.Append(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 3 || a.Cols[0][2] != 3 || a.Cols[1][2] != 30 {
		t.Errorf("after Append: %+v", a)
	}
	// Appending an empty partial is a no-op.
	if err := a.Append(NewResult("x", "y")); err != nil || a.NumRows() != 3 {
		t.Errorf("empty append: rows=%d err=%v", a.NumRows(), err)
	}
}

func TestResultAppendSchemaMismatch(t *testing.T) {
	a := NewResult("x", "y")
	if err := a.Append(NewResult("x")); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := a.Append(NewResult("x", "z")); err == nil {
		t.Error("column-name mismatch accepted")
	}
}

// chunk appends the rows [from, to) of a two-column result whose row i is
// (i, 10i): what an emission site does between two seals.
func chunk(r *Result, from, to int64) {
	for i := from; i < to; i++ {
		r.AppendRow(i, 10*i)
	}
}

// TestResultSealFoldsAndCuts follows a capped partial over three chunks: the
// kept rows stop at the cap, the total and the sums cover every row, and the
// dropped rows' capacity is what the next chunk is written into.
func TestResultSealFoldsAndCuts(t *testing.T) {
	r := NewResult("i", "t")
	chunk(r, 0, 2)
	r.Seal(3)
	if r.NumRows() != 2 || r.Total != 2 || r.Sums[0] != 1 || r.Sums[1] != 10 {
		t.Fatalf("under the cap: rows=%d total=%d sums=%v", r.NumRows(), r.Total, r.Sums)
	}
	chunk(r, 2, 6)
	r.Seal(3)
	if !reflect.DeepEqual(r.Cols, [][]int64{{0, 1, 2}, {0, 10, 20}}) || r.Total != 6 || r.Sums[0] != 15 || r.Sums[1] != 150 {
		t.Fatalf("across the cap: cols=%v total=%d sums=%v", r.Cols, r.Total, r.Sums)
	}
	held := cap(r.Cols[0])
	chunk(r, 6, 8)
	if cap(r.Cols[0]) != held {
		t.Errorf("a chunk after the cut grew the column from %d to %d", held, cap(r.Cols[0]))
	}
	r.Seal(3)
	r.Seal(3) // sealing twice folds nothing twice
	if r.NumRows() != 3 || r.Total != 8 || r.Sums[0] != 28 || r.Sums[1] != 280 || r.Checksum() != 308 {
		t.Fatalf("past the cap: rows=%d total=%d sums=%v", r.NumRows(), r.Total, r.Sums)
	}
	r.Clip()
	if cap(r.Cols[0]) != 3 || !reflect.DeepEqual(r.Cols, [][]int64{{0, 1, 2}, {0, 10, 20}}) {
		t.Errorf("Clip: cap=%d cols=%v", cap(r.Cols[0]), r.Cols)
	}
}

// TestResultSealUncapped: limit <= 0 keeps every row, and a column that fills
// most of its array is not copied by Clip.
func TestResultSealUncapped(t *testing.T) {
	for _, limit := range []int{0, -1} {
		r := NewResult("i", "t")
		chunk(r, 0, 5)
		r.Seal(limit)
		before := &r.Cols[0][0]
		r.Clip()
		if r.NumRows() != 5 || r.Total != 5 || r.Sums[0] != 10 || &r.Cols[0][0] != before {
			t.Errorf("limit %d: rows=%d total=%d sums=%v copied=%v", limit, r.NumRows(), r.Total, r.Sums, &r.Cols[0][0] != before)
		}
	}
}

// TestResultAppendAddsTotals: concatenating sealed partials concatenates their
// kept rows and adds what they counted, and rows not yet sealed (a deferred
// join's) stay unsealed through the concatenation until one final Seal.
func TestResultAppendAddsTotals(t *testing.T) {
	a, b := NewResult("i", "t"), NewResult("i", "t")
	chunk(a, 0, 4)
	a.Seal(2)
	chunk(b, 4, 7)
	b.Seal(2)
	if err := a.Append(b); err != nil {
		t.Fatal(err)
	}
	a.Seal(2)
	if !reflect.DeepEqual(a.Cols, [][]int64{{0, 1}, {0, 10}}) || a.Total != 7 || a.Sums[0] != 21 || a.Sums[1] != 210 {
		t.Errorf("sealed partials: cols=%v total=%d sums=%v", a.Cols, a.Total, a.Sums)
	}

	c, d := NewResult("i", "t"), NewResult("i", "t")
	chunk(c, 0, 2)
	chunk(d, 2, 5)
	if err := c.Append(d); err != nil {
		t.Fatal(err)
	}
	if c.Total != 0 || c.NumRows() != 5 {
		t.Fatalf("unsealed partials: total=%d rows=%d before the seal", c.Total, c.NumRows())
	}
	c.Cols[1][4] = 7 // the deferred fetch overwrites a column in place
	c.Seal(3)
	if c.NumRows() != 3 || c.Total != 5 || c.Sums[0] != 10 || c.Sums[1] != 67 {
		t.Errorf("unsealed partials: rows=%d total=%d sums=%v", c.NumRows(), c.Total, c.Sums)
	}

	// A sealed partial onto an unsealed one: nothing is folded twice or not at all.
	e, f := NewResult("i", "t"), NewResult("i", "t")
	chunk(e, 0, 2)
	chunk(f, 2, 4)
	f.Seal(0)
	if err := e.Append(f); err != nil {
		t.Fatal(err)
	}
	e.Seal(0)
	if e.Total != 4 || e.Sums[0] != 6 {
		t.Errorf("mixed partials: total=%d sums=%v", e.Total, e.Sums)
	}
}
