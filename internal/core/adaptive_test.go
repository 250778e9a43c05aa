package core

import (
	"reflect"
	"testing"

	"matstore/internal/exec"
	"matstore/internal/operators"
	"matstore/internal/oracle"
	"matstore/internal/pred"
	"matstore/internal/tpch"
)

// TestAdaptiveMorselsDifferential is the satellite's acceptance property:
// repeated runs of one plan re-carve morsels from the previous run's
// observed per-morsel selectivity skew, and the results stay byte-identical
// to a fresh serial execution at every worker count — adaptive sizing is a
// pure scheduling choice.
func TestAdaptiveMorselsDifferential(t *testing.T) {
	db := openDB(t)
	p, err := db.Projection(tpch.LineitemProj)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(db.Pool(), Options{ChunkSize: 512})
	// A highly skewed predicate over the sorted column: early morsels match
	// everything, late morsels nothing.
	q := SelectQuery{
		Output: []string{tpch.ColShipdate, tpch.ColQuantity},
		Filters: []Filter{
			{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(0.15))},
		},
	}
	want, _, err := e.Select(p, q, LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies {
		for _, workers := range []int{1, 2, 4, 8} {
			pl, err := e.BuildPlan(p, q, s)
			if err != nil {
				t.Fatal(err)
			}
			var prevMorsels int
			for run := 0; run < 3; run++ {
				res, stats, err := e.RunPlan(pl, s, workers, false)
				if err != nil {
					t.Fatalf("%v/w=%d run %d: %v", s, workers, run, err)
				}
				if !reflect.DeepEqual(oracle.Columns(res), oracle.Columns(want)) {
					t.Fatalf("%v/w=%d run %d: adapted result differs from serial reference", s, workers, run)
				}
				if run > 0 && workers > 1 && stats.Morsels < prevMorsels {
					t.Errorf("%v/w=%d run %d: adaptation coarsened morsels under skew (%d < %d)",
						s, workers, run, stats.Morsels, prevMorsels)
				}
				prevMorsels = stats.Morsels
			}
			if workers > 1 {
				skew := pl.ObservedSkew()
				if skew <= 0 {
					t.Errorf("%v/w=%d: observed skew = %v, want > 0 for a skewed predicate", s, workers, skew)
				}
				if exec.AdaptiveMorselsPerWorker(skew) <= exec.DefaultMorselsPerWorker {
					t.Errorf("%v/w=%d: skew %v did not refine the carving", s, workers, skew)
				}
			}
		}
	}
}

// TestAdaptiveMorselsUniformKeepsDefault checks the other regime: a uniform
// predicate observes ~zero skew and keeps the default carving.
func TestAdaptiveMorselsUniformKeepsDefault(t *testing.T) {
	db := openDB(t)
	p, err := db.Projection(tpch.LineitemProj)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(db.Pool(), Options{ChunkSize: 512})
	q := SelectQuery{Output: []string{tpch.ColShipdate}}
	pl, err := e.BuildPlan(p, q, LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunPlan(pl, LMParallel, 4, false); err != nil {
		t.Fatal(err)
	}
	skew := pl.ObservedSkew()
	if skew > 0.01 {
		t.Errorf("match-all skew = %v, want ~0", skew)
	}
	if got := exec.AdaptiveMorselsPerWorker(skew); got != exec.DefaultMorselsPerWorker {
		t.Errorf("uniform selectivity re-carved to %d morsels/worker", got)
	}
}

// TestAdaptiveMorselsJoin runs the adaptation loop through the join path:
// repeated runs of one join plan (skewed outer predicate) stay
// byte-identical at several worker counts.
func TestAdaptiveMorselsJoin(t *testing.T) {
	orders, customer, e := joinProjections(t)
	q := joinTestQuery(true)
	want, _, err := e.Join(orders, customer, q, operators.RightSingleColumn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		pl, err := e.BuildJoinPlan(orders, customer, q, operators.RightSingleColumn)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			res, _, err := e.RunJoinPlan(pl, workers, false)
			if err != nil {
				t.Fatalf("w=%d run %d: %v", workers, run, err)
			}
			if !reflect.DeepEqual(oracle.Columns(res), oracle.Columns(want)) {
				t.Fatalf("w=%d run %d: adapted join result differs", workers, run)
			}
		}
	}
}
