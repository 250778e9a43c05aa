package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"matstore/internal/operators"
	"matstore/internal/oracle"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

func joinProjections(t *testing.T) (orders, customer *storage.Projection, e *Executor) {
	t.Helper()
	db := openDB(t)
	var err error
	if orders, err = db.Projection(tpch.OrdersProj); err != nil {
		t.Fatal(err)
	}
	if customer, err = db.Projection(tpch.CustomerProj); err != nil {
		t.Fatal(err)
	}
	return orders, customer, NewExecutor(db.Pool(), Options{ChunkSize: 512})
}

func joinTestQuery(withPred bool) JoinQuery {
	q := JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    pred.MatchAll,
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
	}
	if withPred {
		q.LeftPred = pred.LessThan(200)
	}
	return q
}

// TestJoinPlanShapesGolden pins the exact node tree BuildJoinPlan assembles
// for every RightStrategy, with and without the outer-key predicate —
// mirroring plan_golden_test.go for the join subsystem.
func TestJoinPlanShapesGolden(t *testing.T) {
	orders, customer, e := joinProjections(t)
	shape := func(rs operators.RightStrategy, pos string) string {
		return fmt.Sprintf(`join %s plan
PROJECT (shipdate, nationcode)
└─ JOINPROBE custkey = custkey [batched gather]
   ├─ %s
   └─ JOINBUILD custkey [radix, %s] payload=(nationcode)
`, rs, pos, rs)
	}
	for _, rs := range []operators.RightStrategy{
		operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
	} {
		for _, withPred := range []bool{true, false} {
			pos := "ALL positions"
			if withPred {
				pos = "DS1 scan custkey (custkey < 200)"
			}
			pl, err := e.BuildJoinPlan(orders, customer, joinTestQuery(withPred), rs)
			if err != nil {
				t.Fatalf("%v/pred=%v: %v", rs, withPred, err)
			}
			if got, want := pl.Shape(), shape(rs, pos); got != want {
				t.Errorf("%v/pred=%v join plan shape changed:\n--- got ---\n%s--- want ---\n%s",
					rs, withPred, got, want)
			}
		}
	}
}

// TestJoinRadixMatchesSerialBuild is the join's acceptance property: the
// radix-partitioned parallel build + batched probe must return results
// byte-identical (order included) to the serial definition of the join — the
// nested-loop oracle over the decompressed columns — across every
// RightStrategy × worker count × partition count, with and without the outer
// predicate, and its counters must be the ones that definition implies.
func TestJoinRadixMatchesSerialBuild(t *testing.T) {
	orders, customer, _ := joinProjections(t)
	db := openDB(t)
	column := func(p *storage.Projection, name string) *storage.Column {
		c, err := p.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, withPred := range []bool{true, false} {
		q := joinTestQuery(withPred)
		want, probes, err := oracle.NestedLoopJoin(
			column(orders, q.LeftKey), q.LeftPred, []*storage.Column{column(orders, q.LeftOutput[0])},
			column(customer, q.RightKey), []*storage.Column{column(customer, q.RightOutput[0])})
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range []operators.RightStrategy{
			operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
		} {
			wantStats := operators.JoinStats{LeftProbes: probes, OutputTuples: int64(len(want[0]))}
			switch rs {
			case operators.RightMaterialized:
				wantStats.RightBuildTuples = customer.TupleCount()
			case operators.RightSingleColumn:
				wantStats.DeferredFetches = wantStats.OutputTuples * int64(len(q.RightOutput))
			}
			for _, workers := range []int{1, 2, 4, 7} {
				for _, partitions := range []int{0, 1, 2, 8, 64} {
					e := NewExecutor(db.Pool(), Options{ChunkSize: 512, JoinPartitions: partitions})
					q.Parallelism = workers
					got, stats, err := e.Join(orders, customer, q, rs)
					if err != nil {
						t.Fatalf("%v/w=%d/p=%d: %v", rs, workers, partitions, err)
					}
					if !reflect.DeepEqual(oracle.Columns(got), want) {
						t.Errorf("%v/pred=%v/w=%d/p=%d: result differs from the oracle (%d vs %d rows)",
							rs, withPred, workers, partitions, got.NumRows(), len(want[0]))
					}
					if stats.Join.LeftProbes != wantStats.LeftProbes ||
						stats.Join.OutputTuples != wantStats.OutputTuples ||
						stats.Join.RightBuildTuples != wantStats.RightBuildTuples ||
						stats.Join.DeferredFetches != wantStats.DeferredFetches {
						t.Errorf("%v/w=%d/p=%d: join counters %+v, want %+v",
							rs, workers, partitions, stats.Join, wantStats)
					}
					if partitions > 0 && stats.Join.Partitions != partitions {
						t.Errorf("%v/w=%d/p=%d: Partitions = %d", rs, workers, partitions, stats.Join.Partitions)
					}
				}
			}
		}
	}
}

// TestJoinStatsReportActualShape pins the satellite fix: JoinStats.Strategy
// reports the outer side's actual plan shape (a pipelined position chain →
// LM-pipelined, never the old hard-coded LM-parallel), the right strategy is
// surfaced, and the radix build phase is described.
func TestJoinStatsReportActualShape(t *testing.T) {
	orders, customer, e := joinProjections(t)
	q := joinTestQuery(true)
	q.Parallelism = 2
	for _, rs := range []operators.RightStrategy{
		operators.RightMaterialized, operators.RightSingleColumn,
	} {
		_, stats, err := e.Join(orders, customer, q, rs)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Strategy != LMPipelined {
			t.Errorf("%v: Strategy = %v, want %v (the probe's actual outer shape)", rs, stats.Strategy, LMPipelined)
		}
		if stats.RightStrategy != rs {
			t.Errorf("RightStrategy = %v, want %v", stats.RightStrategy, rs)
		}
		if stats.Join.Partitions < 2 {
			t.Errorf("%v: Partitions = %d, want >= 2 at parallelism 2", rs, stats.Join.Partitions)
		}
		if stats.Join.BuildWorkers < 1 || stats.Join.BuildMorsels < 1 {
			t.Errorf("%v: build phase not reported: %+v", rs, stats.Join)
		}
		if stats.PositionsMatched == 0 {
			t.Errorf("%v: PositionsMatched not reported", rs)
		}
	}
}

// TestJoinPlanReuseBuild checks probe isolation: with a build cache of its
// own, repeated runs of one join plan share the partitioned hash side and
// keep returning identical results.
func TestJoinPlanReuseBuild(t *testing.T) {
	orders, customer, e := joinProjections(t)
	pl, err := e.BuildJoinPlan(orders, customer, joinTestQuery(true), operators.RightMultiColumn)
	if err != nil {
		t.Fatal(err)
	}
	pl.Builds = operators.NewBuildCache(0)
	first, _, err := e.RunJoinPlanWith(pl, 2, plan.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		res, _, err := e.RunJoinPlanWith(pl, 2, plan.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle.Columns(res), oracle.Columns(first)) {
			t.Fatalf("run %d: reused-build result differs", run)
		}
	}
}

// TestJoinSemiJoinValidation keeps the semi-join guard on the plan path.
func TestJoinSemiJoinValidation(t *testing.T) {
	orders, customer, e := joinProjections(t)
	q := joinTestQuery(true)
	q.RightOutput = nil
	if _, _, err := e.Join(orders, customer, q, operators.RightSingleColumn); err == nil {
		t.Error("semi-join without right outputs accepted for non-materialized strategy")
	}
	if _, _, err := e.Join(orders, customer, q, operators.RightMaterialized); err != nil {
		t.Errorf("materialized semi-join rejected: %v", err)
	}
}

// TestJoinPlanConcurrentRuns executes one shared join plan from several
// goroutines at once (both with and without a shared build): every run must
// return the reference result, and the build-phase handoff must be
// race-clean (exercised under `make ci`'s -race pass).
func TestJoinPlanConcurrentRuns(t *testing.T) {
	orders, customer, e := joinProjections(t)
	q := joinTestQuery(true)
	want, _, err := e.Join(orders, customer, q, operators.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	for _, reuse := range []bool{false, true} {
		pl, err := e.BuildJoinPlan(orders, customer, q, operators.RightMaterialized)
		if err != nil {
			t.Fatal(err)
		}
		if reuse {
			pl.Builds = operators.NewBuildCache(0)
		}
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for run := 0; run < 3; run++ {
					res, _, err := e.RunJoinPlanWith(pl, 2, plan.RunOptions{})
					if err != nil {
						errs[g] = err
						return
					}
					if !reflect.DeepEqual(oracle.Columns(res), oracle.Columns(want)) {
						errs[g] = fmt.Errorf("goroutine %d run %d: result differs", g, run)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("reuse=%v: %v", reuse, err)
			}
		}
	}
}
