package core

import (
	"testing"

	"matstore/internal/operators"
	"matstore/internal/oracle"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// TestChunkBoundariesAgainstOracle sweeps where a result's chunks begin and
// end. At 256-row chunks, one worker and four, every selection strategy and
// every join strategy — in memory and with every partition spilled — runs
// uncapped and capped at 1, 255, 256, 257 and one row short of the whole, so
// a cap falls inside the first chunk, just before, on and just after a chunk
// boundary (the queries that keep every row emit chunks of exactly 256), and
// at the far end of the list. The customer ⋈ orders pair of
// TestJoinSpillPassBUnmatchedKeys is among the joins, so pass B drops and
// expands placeholders in every chunk on both sides of each boundary. Each
// run's kept rows, Total and Sums must be oracle.Capped's.
func TestChunkBoundariesAgainstOracle(t *testing.T) {
	const chunk = 256
	limits := func(rows int) []int { return []int{1, 255, 256, 257, rows - 1, 0} }
	db := openDB(t)
	e := NewExecutor(db.Pool(), Options{ChunkSize: chunk})
	proj := func(db *storage.DB, name string) *storage.Projection {
		p, err := db.Projection(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	col := func(p *storage.Projection, name string) *storage.Column {
		c, err := p.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	li := proj(db, tpch.LineitemProj)
	for name, q := range map[string]SelectQuery{
		"every row": lineitemQuery(tpch.ColLinenumRLE, tpch.ShipdateDays, tpch.LinenumMax+1),
		"some rows": lineitemQuery(tpch.ColLinenum, tpch.ShipdateForSelectivity(0.6), 4),
	} {
		ref := oracle.Columns(naiveSelect(t, li, q))
		for _, s := range Strategies {
			for _, par := range []int{1, 4} {
				for _, limit := range limits(len(ref[0])) {
					q.Parallelism, q.Limit = par, limit
					res, _, err := e.Select(li, q, s)
					if err != nil {
						t.Fatal(err)
					}
					if err := oracle.Capped(res, ref, limit); err != nil {
						t.Errorf("%s/%v/w=%d/limit=%d: %v", name, s, par, limit, err)
					}
				}
			}
		}
	}

	udb, customer, orders := unmatchedKeysDB(t)
	for _, pair := range []struct {
		name        string
		e           *Executor
		left, right *storage.Projection
		q           JoinQuery
	}{
		{"orders-customer", e, proj(db, tpch.OrdersProj), proj(db, tpch.CustomerProj), joinTestQuery(false)},
		{"customer-orders", NewExecutor(udb.Pool(), Options{ChunkSize: chunk}), customer, orders, JoinQuery{
			LeftKey:     tpch.ColCustkey,
			LeftPred:    pred.LessThan(500),
			LeftOutput:  []string{tpch.ColNationcode},
			RightKey:    tpch.ColCustkey,
			RightOutput: []string{tpch.ColOrderShipdate},
		}},
	} {
		q := pair.q
		ref, _, err := oracle.NestedLoopJoin(col(pair.left, q.LeftKey), q.LeftPred,
			[]*storage.Column{col(pair.left, q.LeftOutput[0])}, col(pair.right, q.RightKey),
			[]*storage.Column{col(pair.right, q.RightOutput[0])})
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range []operators.RightStrategy{
			operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
		} {
			pl, err := pair.e.BuildJoinPlan(pair.left, pair.right, q, rs)
			if err != nil {
				t.Fatal(err)
			}
			for _, spill := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					for _, limit := range limits(len(ref[0])) {
						opt := plan.RunOptions{Limit: limit}
						if spill {
							opt.Spill = &operators.SpillConfig{BudgetBytes: 1, EstBytes: 1 << 20}
						}
						res, _, err := pair.e.RunJoinPlanWith(pl, par, opt)
						if err != nil {
							t.Fatal(err)
						}
						if err := oracle.Capped(res, ref, limit); err != nil {
							t.Errorf("%s/%v/spill=%v/w=%d/limit=%d: %v", pair.name, rs, spill, par, limit, err)
						}
					}
				}
			}
		}
	}
}
