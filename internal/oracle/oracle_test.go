package oracle

import (
	"path/filepath"
	"reflect"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
)

// column writes vals as a column file of the given encoding and opens it.
func column(t *testing.T, enc encoding.Kind, vals ...int64) *storage.Column {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.col")
	w, err := storage.NewColumnWriter(path, enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := storage.Open(path, buffer.New(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// The tables below are computed by hand from these three columns:
//
//	pos  a  b  g
//	0    1  10 7
//	1    2  20 7
//	2    3  30 8
//	3    3  40 7
//	4    5  50 8
//	5    9  60 9
func table(t *testing.T) (a, b, g *storage.Column) {
	return column(t, encoding.Plain, 1, 2, 3, 3, 5, 9),
		column(t, encoding.RLE, 10, 20, 30, 40, 50, 60),
		column(t, encoding.BitVector, 7, 7, 8, 7, 8, 9)
}

func TestSelect(t *testing.T) {
	a, b, g := table(t)
	for _, tc := range []struct {
		name    string
		filters []Filter
		want    [][]int64 // out = (a, b, g)
	}{
		{"no filters keeps every row", nil,
			[][]int64{{1, 2, 3, 3, 5, 9}, {10, 20, 30, 40, 50, 60}, {7, 7, 8, 7, 8, 9}}},
		{"all matching", []Filter{{a, pred.MatchAll}, {b, pred.AtLeast(10)}},
			[][]int64{{1, 2, 3, 3, 5, 9}, {10, 20, 30, 40, 50, 60}, {7, 7, 8, 7, 8, 9}}},
		{"none matching", []Filter{{a, pred.GreaterThan(9)}}, [][]int64{nil, nil, nil}},
		{"contradiction on one column", []Filter{{a, pred.AtLeast(3)}, {a, pred.LessThan(3)}}, [][]int64{nil, nil, nil}},
		{"Ne on the lower boundary", []Filter{{a, pred.InRange(1, 4)}, {a, pred.NotEquals(1)}},
			[][]int64{{2, 3, 3}, {20, 30, 40}, {7, 8, 7}}},
		{"Ne on the upper boundary", []Filter{{a, pred.AtMost(9)}, {a, pred.NotEquals(9)}},
			[][]int64{{1, 2, 3, 3, 5}, {10, 20, 30, 40, 50}, {7, 7, 8, 7, 8}}},
		{"Ne inside a run of equal values", []Filter{{a, pred.NotEquals(3)}},
			[][]int64{{1, 2, 5, 9}, {10, 20, 50, 60}, {7, 7, 8, 9}}},
		{"conjunction across columns", []Filter{{g, pred.Equals(7)}, {b, pred.GreaterThan(10)}, {a, pred.AtMost(3)}},
			[][]int64{{2, 3}, {20, 40}, {7, 7}}},
	} {
		got, err := Select(tc.filters, []*storage.Column{a, b, g})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	// A repeated output column keeps its arity.
	got, err := Select([]Filter{{a, pred.Equals(5)}}, []*storage.Column{b, b})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int64{{50}, {50}}; !reflect.DeepEqual(got, want) {
		t.Errorf("repeated output: got %v, want %v", got, want)
	}
}

func TestAggregate(t *testing.T) {
	a, b, g := table(t)
	// GROUP BY g over every row: 7 -> b {10,20,40}, 8 -> {30,50}, 9 -> {60}.
	for fn, want := range map[string][]int64{
		"sum":   {70, 80, 60},
		"count": {3, 2, 1},
		"avg":   {23, 40, 60}, // 70/3 truncates
		"min":   {10, 30, 60},
		"max":   {40, 50, 60},
	} {
		keys, aggs, err := Aggregate(nil, g, b, fn)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if !reflect.DeepEqual(keys, []int64{7, 8, 9}) || !reflect.DeepEqual(aggs, want) {
			t.Errorf("%s: got %v -> %v, want [7 8 9] -> %v", fn, keys, aggs, want)
		}
	}
	// A filter that empties one group drops the group; keys stay ascending
	// although 8 is seen before the second 7.
	keys, aggs, err := Aggregate([]Filter{{a, pred.AtLeast(3)}, {a, pred.NotEquals(9)}}, g, b, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []int64{7, 8}) || !reflect.DeepEqual(aggs, []int64{40, 80}) {
		t.Errorf("filtered sum: got %v -> %v", keys, aggs)
	}
	// Truncation is toward zero for a negative quotient too.
	neg := column(t, encoding.Plain, -7, 0, 0, 0, 0, 0)
	one := column(t, encoding.Plain, 1, 1, 2, 2, 2, 2)
	if _, aggs, _ = Aggregate(nil, one, neg, "avg"); !reflect.DeepEqual(aggs, []int64{-3, 0}) {
		t.Errorf("avg of (-7, 0) and four zeros = %v, want [-3 0]", aggs)
	}
	if keys, aggs, err = Aggregate([]Filter{{a, pred.Predicate{Op: pred.None}}}, g, b, "count"); err != nil || keys != nil || aggs != nil {
		t.Errorf("no surviving row: got %v -> %v (%v), want no groups", keys, aggs, err)
	}
	if _, _, err = Aggregate(nil, g, b, "median"); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	empty := column(t, encoding.Plain)
	got, err := Select([]Filter{{empty, pred.MatchAll}}, []*storage.Column{empty})
	if err != nil || len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("Select over an empty column = %v (%v)", got, err)
	}
	keys, aggs, err := Aggregate(nil, empty, empty, "sum")
	if err != nil || keys != nil || aggs != nil {
		t.Errorf("Aggregate over an empty column = %v -> %v (%v)", keys, aggs, err)
	}
	out, probes, err := NestedLoopJoin(empty, pred.MatchAll, []*storage.Column{empty}, empty, nil)
	if err != nil || probes != 0 || len(out) != 1 || len(out[0]) != 0 {
		t.Errorf("join of empty columns = %v, %d probes (%v)", out, probes, err)
	}
}

func TestNestedLoopJoinDuplicateKeys(t *testing.T) {
	// left:  key 1 2 2 4 3, payload 10..50; right: key 2 1 2 5 2, payload 100..500.
	lk := column(t, encoding.Plain, 1, 2, 2, 4, 3)
	lp := column(t, encoding.Plain, 10, 20, 30, 40, 50)
	rk := column(t, encoding.RLE, 2, 1, 2, 5, 2)
	rp := column(t, encoding.Plain, 100, 200, 300, 400, 500)
	// Left rows in position order, each with its right matches in position
	// order: 1 -> right 1; each 2 -> right 0, 2, 4; 4 and 3 match nothing.
	out, probes, err := NestedLoopJoin(lk, pred.MatchAll, []*storage.Column{lp}, rk, []*storage.Column{rp})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{
		{10, 20, 20, 20, 30, 30, 30},
		{200, 100, 300, 500, 100, 300, 500},
	}
	if probes != 5 || !reflect.DeepEqual(out, want) {
		t.Errorf("got %v from %d probes, want %v from 5", out, probes, want)
	}
	// keep drops left rows before they probe: only the keys above 1 remain,
	// and the unmatched ones still count as probes.
	out, probes, err = NestedLoopJoin(lk, pred.GreaterThan(2), []*storage.Column{lp}, rk, []*storage.Column{rp})
	if err != nil {
		t.Fatal(err)
	}
	if probes != 2 || len(out[0]) != 0 {
		t.Errorf("keys 4 and 3: got %v from %d probes, want no rows from 2", out, probes)
	}
}

// TestCapped states the row cap's contract on a hand-written result: the
// kept prefix, the total and the sums, and each way of missing them.
func TestCapped(t *testing.T) {
	full := [][]int64{{1, 2, 3}, {10, 20, 30}}
	run := func(limit int) *rows.Result {
		r := rows.NewResult("a", "b")
		for c, dst := range r.AddChunk(2) { // two chunks: the cap can cut either
			copy(dst, full[c][:2])
		}
		for c, dst := range r.AddChunk(1) {
			copy(dst, full[c][2:])
		}
		r.Seal(limit)
		return r
	}
	for _, limit := range []int{0, -1, 1, 3, 4} {
		if err := Capped(run(limit), full, limit); err != nil {
			t.Errorf("limit %d: %v", limit, err)
		}
	}
	if err := Capped(run(0), full, 2); err == nil {
		t.Error("an uncapped result passed for one capped at 2")
	}
	if err := Capped(run(2), full, 0); err == nil {
		t.Error("a result capped at 2 passed for the whole")
	}
	short := run(2)
	short.Total--
	if err := Capped(short, full, 2); err == nil {
		t.Error("a wrong Total passed")
	}
	off := run(2)
	off.Sums[1]++
	if err := Capped(off, full, 2); err == nil {
		t.Error("a wrong sum passed")
	}
	if err := Capped(rows.NewResult("a", "b"), [][]int64{nil, nil}, 5); err != nil {
		t.Errorf("empty result: %v", err)
	}
}
