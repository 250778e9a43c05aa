package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"matstore/internal/encoding"
	"matstore/internal/operators"
	"matstore/internal/oracle"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// TestJoinSpillPassBDuplicateKeys drives pass B of the Grace join where the
// orders ⋈ customer suites cannot: a self-join of orders on custkey has about
// ten inner rows per key, so every deferred probe's placeholder row expands
// into a run of matches; runs of consecutive outer rows route to spilled
// partitions, so expansions sit side by side; and at half the budget resident
// and spilled partitions mix, so resident matches and expanded placeholders
// interleave. The spilled result must equal the
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

// unmatchedKeysDB writes a customer ⋈ orders pair on custkey where a deferred
// probe can match zero, one or many times, which the generated TPC-H data
// cannot show (its custkeys are uniform, ten orders a customer): like TPC-H's
// own, customers whose key is a multiple of three have no orders; of the
// rest, those at 1 mod 3 have exactly one and those at 2 mod 3 about a dozen.
// The orders are shuffled, so a customer's matches lie apart in position
// order.
func unmatchedKeysDB(t *testing.T) (db *storage.DB, customer, orders *storage.Projection) {
	t.Helper()
	const nCust = 600
	rng := rand.New(rand.NewSource(5))
	var custkeys []int64
	for k := int64(1); k < nCust; k += 3 {
		custkeys = append(custkeys, k)
	}
	for range 2400 {
		custkeys = append(custkeys, 3*rng.Int63n(nCust/3)+2)
	}
	rng.Shuffle(len(custkeys), func(i, j int) { custkeys[i], custkeys[j] = custkeys[j], custkeys[i] })
	dir := t.TempDir()
	write := func(name string, cols map[string][]int64, order ...string) {
		specs := make([]storage.ColumnSpec, len(order))
		for i, c := range order {
			specs[i] = storage.ColumnSpec{Name: c, Encoding: encoding.Plain}
		}
		if _, err := storage.WriteProjectionParallel(filepath.Join(dir, name), name, order[:1], specs, 1,
			func(col int, w *storage.ColumnWriter) error {
				for _, v := range cols[order[col]] {
					if err := w.Append(v); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
			t.Fatal(err)
		}
	}
	cust, nation := make([]int64, nCust), make([]int64, nCust)
	for k := range cust {
		cust[k], nation[k] = int64(k), int64(k%25)
	}
	ship := make([]int64, len(custkeys))
	for i := range ship {
		ship[i] = rng.Int63n(tpch.ShipdateDays)
	}
	write(tpch.CustomerProj, map[string][]int64{tpch.ColCustkey: cust, tpch.ColNationcode: nation},
		tpch.ColCustkey, tpch.ColNationcode)
	write(tpch.OrdersProj, map[string][]int64{tpch.ColCustkey: custkeys, tpch.ColOrderShipdate: ship},
		tpch.ColCustkey, tpch.ColOrderShipdate)
	db, err := storage.OpenDB(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if customer, err = db.Projection(tpch.CustomerProj); err != nil {
		t.Fatal(err)
	}
	if orders, err = db.Projection(tpch.OrdersProj); err != nil {
		t.Fatal(err)
	}
	return db, customer, orders
}

// TestJoinSpillPassBUnmatchedKeys drives the placeholders of pass B that no
// orders ⋈ customer fixture reaches: customer ⋈ orders, where a probe that
// routed to a spilled partition matches zero, one or a dozen times, so its
// placeholder row is dropped, filled in place or expanded. With and without
// right output columns, at every budget (all spilled, mixed, none),
// worker count, partition count, strategy and row cap, the spilled result
// must equal the in-memory result and the nested-loop oracle byte for byte,
// and the counters must count output and probes, never placeholders.
func TestJoinSpillPassBUnmatchedKeys(t *testing.T) {
	db, customer, orders := unmatchedKeysDB(t)
	col := func(p *storage.Projection, name string) *storage.Column {
		c, err := p.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	dir := t.TempDir()
	for _, rightOut := range [][]string{{tpch.ColOrderShipdate}, nil} {
		q := JoinQuery{
			LeftKey:     tpch.ColCustkey,
			LeftPred:    pred.LessThan(500),
			LeftOutput:  []string{tpch.ColNationcode},
			RightKey:    tpch.ColCustkey,
			RightOutput: rightOut,
		}
		var rightCols []*storage.Column
		for _, c := range rightOut {
			rightCols = append(rightCols, col(orders, c))
		}
		ref, probes, err := oracle.NestedLoopJoin(col(customer, tpch.ColCustkey), q.LeftPred,
			[]*storage.Column{col(customer, tpch.ColNationcode)}, col(orders, tpch.ColCustkey), rightCols)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{0, 8} {
			e := NewExecutor(db.Pool(), Options{ChunkSize: 64, JoinPartitions: parts})
			for _, rs := range []operators.RightStrategy{
				operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
			} {
				if rightOut == nil && rs != operators.RightMaterialized {
					continue // a semi-join builds materialized only
				}
				name := fmt.Sprintf("rightout=%d/parts=%d/%v", len(rightOut), parts, rs)
				pl, err := e.BuildJoinPlan(customer, orders, q, rs)
				if err != nil {
					t.Fatal(err)
				}
				want, wantStats, err := e.RunJoinPlan(pl, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Cols, ref) || wantStats.Join.LeftProbes != probes {
					t.Fatalf("%s: in-memory join differs from the oracle (%d rows, %d probes; oracle %d probes)",
						name, want.NumRows(), wantStats.Join.LeftProbes, probes)
				}
				build := pl.JoinProbe().Children[1]
				est, err := operators.BuildPartitioned(build.Column, build.RightCols, build.RightPayload, rs, 64, 1, parts)
				if err != nil {
					t.Fatal(err)
				}
				for _, budget := range []int64{1, est.SizeBytes / 2, est.SizeBytes * 100} {
					for _, workers := range []int{1, 4} {
						at := fmt.Sprintf("%s/budget=%d/w=%d", name, budget, workers)
						spill := &operators.SpillConfig{BudgetBytes: budget, EstBytes: est.SizeBytes, Dir: dir}
						got, stats, err := e.RunJoinPlanWith(pl, workers, plan.RunOptions{Spill: spill})
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Columns, want.Columns) {
							t.Errorf("%s: spilled result differs from in-memory (%d vs %d rows)", at, got.NumRows(), want.NumRows())
						}
						if stats.Join.OutputTuples != wantStats.Join.OutputTuples || stats.Join.LeftProbes != probes ||
							stats.TuplesConstructed != stats.Join.OutputTuples || stats.TuplesOut != int64(want.NumRows()) {
							t.Errorf("%s: %d output, %d constructed, %d out, %d probes; want %d output and out, %d probes",
								at, stats.Join.OutputTuples, stats.TuplesConstructed, stats.TuplesOut, stats.Join.LeftProbes,
								want.NumRows(), probes)
						}
						switch sp := stats.Join.SpillProbes; {
						case stats.Join.SpilledParts == stats.Join.Partitions && sp != probes,
							stats.Join.SpilledParts == 0 && sp != 0,
							sp < 0 || sp > probes:
							t.Errorf("%s: %d spill probes of %d, %d of %d partitions spilled",
								at, sp, probes, stats.Join.SpilledParts, stats.Join.Partitions)
						}
						if budget == 1 && stats.Join.SpilledParts != stats.Join.Partitions {
							t.Errorf("%s: %d of %d partitions spilled", at, stats.Join.SpilledParts, stats.Join.Partitions)
						}
						for _, limit := range oracle.Limits(want.NumRows()) {
							capped, _, err := e.RunJoinPlanWith(pl, workers, plan.RunOptions{Limit: limit, Spill: spill})
							if err != nil {
								t.Fatalf("%s/limit=%d: %v", at, limit, err)
							}
							if err := oracle.Capped(capped, want.Cols, limit); err != nil {
								t.Errorf("%s/limit=%d: %v", at, limit, err)
							}
						}
					}
				}
			}
		}
	}
}
