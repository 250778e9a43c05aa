package core

import (
	"context"
	"reflect"
	"testing"

	"matstore/internal/operators"
	"matstore/internal/oracle"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/tpch"
)

// TestJoinSpillPassBDuplicateKeys drives pass B of the Grace join where the
// orders ⋈ customer suites cannot: a self-join of orders on custkey has about
// ten inner rows per key, so every deferred probe inserts a run of matches;
// runs of consecutive outer rows route to spilled partitions and share one
// anchor; and at half the budget resident and spilled partitions mix, so base
// rows and inserted rows interleave. The spilled result must equal the
// in-memory one byte for byte at every budget, worker count and strategy, and
// its leading rows, count and sums under every row cap of oracle.Limits.
func TestJoinSpillPassBDuplicateKeys(t *testing.T) {
	db := openDB(t)
	orders, err := db.Projection(tpch.OrdersProj)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(db.Pool(), Options{ChunkSize: 256, JoinPartitions: 8})
	q := JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    pred.LessThan(120),
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColOrderShipdate, tpch.ColCustkey},
	}
	dir := t.TempDir()
	for _, rs := range []operators.RightStrategy{
		operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
	} {
		pl, err := e.BuildJoinPlan(orders, orders, q, rs)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := e.RunJoinPlan(pl, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumRows() <= 5*int(wantStats.Join.LeftProbes) {
			t.Fatalf("%v: %d rows from %d probes: the fixture lost its duplicate inner keys",
				rs, want.NumRows(), wantStats.Join.LeftProbes)
		}
		// The same caps without a spill: ten matches a probe, so a chunk's
		// emission straddles the cap mid-probe.
		for _, limit := range oracle.Limits(want.NumRows()) {
			for _, workers := range []int{1, 4} {
				capped, _, err := e.RunJoinPlanWith(pl, workers, plan.RunOptions{Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				if err := oracle.Capped(capped, want.Cols, limit); err != nil {
					t.Errorf("%v/in-memory/w=%d/limit=%d: %v", rs, workers, limit, err)
				}
			}
		}
		build := pl.JoinProbe().Children[1]
		ref, err := operators.BuildPartitioned(build.Column, build.RightCols, build.RightPayload, operators.RightSingleColumn, 256, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{1, ref.SizeBytes / 2} {
			for _, workers := range []int{1, 4} {
				spl, err := e.BuildJoinPlan(orders, orders, q, rs)
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := e.RunJoinPlanWith(spl, workers, plan.RunOptions{
					Ctx:   context.Background(),
					Spill: &operators.SpillConfig{BudgetBytes: budget, EstBytes: ref.SizeBytes, Dir: dir},
				})
				if err != nil {
					t.Fatalf("%v/budget=%d/w=%d: %v", rs, budget, workers, err)
				}
				if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Columns, want.Columns) {
					t.Errorf("%v/budget=%d/w=%d: spilled result differs from in-memory (%d vs %d rows)",
						rs, budget, workers, got.NumRows(), want.NumRows())
				}
				for _, limit := range oracle.Limits(want.NumRows()) {
					capped, _, err := e.RunJoinPlanWith(spl, workers, plan.RunOptions{
						Limit: limit,
						Spill: &operators.SpillConfig{BudgetBytes: budget, EstBytes: ref.SizeBytes, Dir: dir},
					})
					if err != nil {
						t.Fatalf("%v/budget=%d/w=%d/limit=%d: %v", rs, budget, workers, limit, err)
					}
					if err := oracle.Capped(capped, want.Cols, limit); err != nil {
						t.Errorf("%v/budget=%d/w=%d/limit=%d: %v", rs, budget, workers, limit, err)
					}
				}
				mixed := stats.Join.SpilledParts > 0 && stats.Join.SpilledParts < stats.Join.Partitions
				if (budget > 1) != mixed {
					t.Errorf("%v/budget=%d/w=%d: %d of %d partitions spilled", rs, budget, workers,
						stats.Join.SpilledParts, stats.Join.Partitions)
				}
				if stats.Join.SpillProbes == 0 || stats.Join.SpillProbes > stats.Join.LeftProbes ||
					(mixed && stats.Join.SpillProbes == stats.Join.LeftProbes) {
					t.Errorf("%v/budget=%d/w=%d: %d spill probes of %d", rs, budget, workers,
						stats.Join.SpillProbes, stats.Join.LeftProbes)
				}
				if stats.Join.LeftProbes != wantStats.Join.LeftProbes || stats.Join.OutputTuples != wantStats.Join.OutputTuples ||
					stats.PositionsMatched != wantStats.PositionsMatched {
					t.Errorf("%v/budget=%d/w=%d: counters %+v, want %+v", rs, budget, workers, stats.Join, wantStats.Join)
				}
			}
		}
	}
}
