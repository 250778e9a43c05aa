package operators

import (
	"math/rand"
	"reflect"
	"testing"

	"matstore/internal/encoding"
	"matstore/internal/oracle"
)

// aggFuncs lists every aggregate function under test.
var aggFuncs = []AggFunc{AggSum, AggCount, AggAvg, AggMin, AggMax}

// splitPoints cuts n tuples into parts at the given fractions, allowing
// empty parts (an empty morsel contributes an empty partial).
func splitIndexes(n int, cuts []float64) [][2]int {
	var out [][2]int
	prev := 0
	for _, f := range cuts {
		end := int(f * float64(n))
		if end < prev {
			end = prev
		}
		out = append(out, [2]int{prev, end})
		prev = end
	}
	out = append(out, [2]int{prev, n})
	return out
}

// TestAggregatorMergeEqualsSingleShot checks the mergeable-state contract:
// merging N per-morsel partial aggregators equals aggregating the whole
// input in one shot, for every aggregate function, grouped and ungrouped.
func TestAggregatorMergeEqualsSingleShot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	makeKeys := func(distinct int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(distinct)
		}
		return keys
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(2001) - 1000 // include negatives
	}

	for _, tc := range []struct {
		name string
		keys []int64
	}{
		{"grouped", makeKeys(37)},
		{"ungrouped", make([]int64, n)}, // single group: key 0 everywhere
	} {
		for _, fn := range aggFuncs {
			// Single shot.
			whole := NewAggregator(fn)
			whole.AddBatch(tc.keys, vals)
			want := whole.Emit("k", "v")

			// Partitioned with empty morsels at the front, middle, and end.
			parts := splitIndexes(n, []float64{0, 0.13, 0.13, 0.5, 0.9, 1})
			merged := NewAggregator(fn)
			for _, p := range parts {
				pt := NewAggregator(fn)
				pt.AddBatch(tc.keys[p[0]:p[1]], vals[p[0]:p[1]])
				merged.Merge(pt)
			}
			got := merged.Emit("k", "v")

			if !reflect.DeepEqual(oracle.Columns(got), oracle.Columns(want)) {
				t.Errorf("%s/%v: merged partials disagree with single shot", tc.name, fn)
			}
			if merged.Groups() != whole.Groups() {
				t.Errorf("%s/%v: groups %d, want %d", tc.name, fn, merged.Groups(), whole.Groups())
			}
			if merged.TuplesIn != whole.TuplesIn {
				t.Errorf("%s/%v: TuplesIn %d, want %d", tc.name, fn, merged.TuplesIn, whole.TuplesIn)
			}
		}
	}
}

// TestAggregatorMergeSingleGroupEdge exercises the single-group edge case
// where only one partial has seen the group.
func TestAggregatorMergeSingleGroupEdge(t *testing.T) {
	for _, fn := range aggFuncs {
		a := NewAggregator(fn)
		b := NewAggregator(fn)
		b.AddTuple(42, -5)
		b.AddTuple(42, 9)
		a.Merge(b)
		got := a.Emit("k", "v")
		want := map[AggFunc]int64{AggSum: 4, AggCount: 2, AggAvg: 2, AggMin: -5, AggMax: 9}[fn]
		if got.NumRows() != 1 || !reflect.DeepEqual(got.Row(0), []int64{42, want}) {
			t.Errorf("%v: Emit = %v, want one row 42/%d", fn, oracle.Columns(got), want)
		}
	}
}

// TestAggregatorMergeEmptyPartials checks that empty (and nil) partials are
// harmless in any position of the merge order.
func TestAggregatorMergeEmptyPartials(t *testing.T) {
	a := NewAggregator(AggSum)
	a.Merge(NewAggregator(AggSum)) // empty into empty
	a.Merge(nil)
	if a.Groups() != 0 {
		t.Fatalf("groups = %d after empty merges", a.Groups())
	}
	b := NewAggregator(AggSum)
	b.AddTuple(1, 10)
	a.Merge(b)
	a.Merge(NewAggregator(AggSum)) // empty after data
	res := a.Emit("k", "v")
	if res.NumRows() != 1 || res.Row(0)[1] != 10 {
		t.Errorf("Emit = %+v", res)
	}
}

// TestAggregatorMergeRunStates checks merging of run-at-a-time (LM) partial
// states, including pre-aggregated runs split across partials.
func TestAggregatorMergeRunStates(t *testing.T) {
	whole := NewAggregator(AggMin)
	whole.AddRun(3, encoding.RunStats{Sum: 60, Count: 4, Min: 5, Max: 30})
	whole.AddRun(3, encoding.RunStats{Sum: 7, Count: 2, Min: 2, Max: 5})
	whole.AddRun(8, encoding.RunStats{Sum: 11, Count: 1, Min: 11, Max: 11})

	a := NewAggregator(AggMin)
	a.AddRun(3, encoding.RunStats{Sum: 60, Count: 4, Min: 5, Max: 30})
	b := NewAggregator(AggMin)
	b.AddRun(3, encoding.RunStats{Sum: 7, Count: 2, Min: 2, Max: 5})
	b.AddRun(8, encoding.RunStats{Sum: 11, Count: 1, Min: 11, Max: 11})
	a.Merge(b)

	if !reflect.DeepEqual(oracle.Columns(a.Emit("k", "v")), oracle.Columns(whole.Emit("k", "v"))) {
		t.Error("run-state merge disagrees with single shot")
	}
}
