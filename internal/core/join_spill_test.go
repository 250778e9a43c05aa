package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"matstore/internal/faults"
	"matstore/internal/operators"
	"matstore/internal/oracle"
	"matstore/internal/plan"
)

// TestJoinSpillMatchesInMemory is the memory-governance acceptance property
// at the plan level: a Grace spill build probed partition-at-a-time must
// return results byte-identical (order included) to the in-memory radix
// join, at every budget (everything spilled, partially spilled, nothing
// spilled) × worker count × strategy, with and without the outer predicate —
// and under every row cap of oracle.Limits, where placeholder rows and
// deferred positions are what a prefix could get wrong: the capped spill run keeps the
// in-memory result's leading rows and counts and sums all of them.
func TestJoinSpillMatchesInMemory(t *testing.T) {
	orders, customer, e := joinProjections(t)
	for _, withPred := range []bool{true, false} {
		q := joinTestQuery(withPred)
		for _, rs := range []operators.RightStrategy{
			operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
		} {
			pl, err := e.BuildJoinPlan(orders, customer, q, rs)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := e.RunJoinPlanWith(pl, 4, plan.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := operators.BuildPartitioned(
				pl.JoinProbe().Children[1].Column, pl.JoinProbe().Children[1].RightCols,
				pl.JoinProbe().Children[1].RightPayload, rs, 512, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int64{1, ref.SizeBytes / 2, ref.SizeBytes * 100} {
				for _, workers := range []int{1, 4} {
					spl, err := e.BuildJoinPlan(orders, customer, q, rs)
					if err != nil {
						t.Fatal(err)
					}
					got, stats, err := e.RunJoinPlanWith(spl, workers, plan.RunOptions{
						Ctx:   context.Background(),
						Spill: &operators.SpillConfig{BudgetBytes: budget, EstBytes: ref.SizeBytes},
					})
					if err != nil {
						t.Fatalf("%v/pred=%v/budget=%d/w=%d: %v", rs, withPred, budget, workers, err)
					}
					if !reflect.DeepEqual(oracle.Columns(got), oracle.Columns(want)) || !reflect.DeepEqual(got.Columns, want.Columns) {
						t.Errorf("%v/pred=%v/budget=%d/w=%d: spilled result differs from in-memory (%d vs %d rows)",
							rs, withPred, budget, workers, got.NumRows(), want.NumRows())
					}
					for _, limit := range oracle.Limits(want.NumRows()) {
						capped, _, err := e.RunJoinPlanWith(spl, workers, plan.RunOptions{
							Limit: limit,
							Spill: &operators.SpillConfig{BudgetBytes: budget, EstBytes: ref.SizeBytes},
						})
						if err != nil {
							t.Fatalf("%v/pred=%v/budget=%d/w=%d/limit=%d: %v", rs, withPred, budget, workers, limit, err)
						}
						if err := oracle.Capped(capped, oracle.Columns(want), limit); err != nil {
							t.Errorf("%v/pred=%v/budget=%d/w=%d/limit=%d: %v", rs, withPred, budget, workers, limit, err)
						}
					}
					if !stats.Join.Spilled {
						t.Errorf("%v/budget=%d: Spilled not reported", rs, budget)
					}
					if budget == 1 && stats.Join.SpilledParts != stats.Join.Partitions {
						t.Errorf("%v/budget=1/w=%d: SpilledParts = %d, want all %d",
							rs, workers, stats.Join.SpilledParts, stats.Join.Partitions)
					}
					if budget == ref.SizeBytes*100 && stats.Join.SpilledParts != 0 {
						t.Errorf("%v/unlimited/w=%d: SpilledParts = %d, want 0", rs, workers, stats.Join.SpilledParts)
					}
					if stats.Join.SpilledParts > 0 && stats.Join.SpillBytes == 0 {
						t.Errorf("%v/budget=%d: spilled partitions but SpillBytes = 0", rs, budget)
					}
					// BuildTuples counts payload materialized during build — the
					// spill build defers all payload, so only the probe-side
					// counters must match.
					if stats.Join.LeftProbes != wantStats.Join.LeftProbes ||
						stats.Join.OutputTuples != wantStats.Join.OutputTuples {
						t.Errorf("%v/budget=%d/w=%d: counters %+v, want %+v",
							rs, budget, workers, stats.Join, wantStats.Join)
					}
				}
			}
		}
	}
}

// TestJoinSpillCancel pins cancellation of a spill run, in the build and in
// pass B: the run returns the context's error. The pass-B case slows the
// rebuild of the first cold partition past the run's deadline, so the rebuild
// sees the expired context at its first chunk.
func TestJoinSpillCancel(t *testing.T) {
	defer faults.Reset()
	orders, customer, e := joinProjections(t)
	pl, err := e.BuildJoinPlan(orders, customer, joinTestQuery(false), operators.RightSingleColumn)
	if err != nil {
		t.Fatal(err)
	}
	spill := &operators.SpillConfig{BudgetBytes: 1, EstBytes: 1 << 20}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err = e.RunJoinPlanWith(pl, 2, plan.RunOptions{Ctx: ctx, Spill: spill}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled spill run: err = %v, want %v", err, context.Canceled)
	}

	faults.Enable("spill.read", faults.Failpoint{Mode: faults.Slow, Delay: 500 * time.Millisecond})
	ctx, cancel = context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, _, err = e.RunJoinPlanWith(pl, 2, plan.RunOptions{Ctx: ctx, Spill: spill}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spill run past its deadline in pass B: err = %v, want %v", err, context.DeadlineExceeded)
	}
	if faults.Hits("spill.read") == 0 {
		t.Error("the run never reached pass B")
	}
}
