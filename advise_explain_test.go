package matstore_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"matstore"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// TestAdviseMatchesExplain is the guard that keeps a second composition of
// the cost formulas from growing back: whatever the advisor or a served
// request's est_cost_us (the price its worker grant is sized from) say a
// strategy costs must be the number EXPLAIN reports for the plan that
// strategy runs — hot and cold, inside and outside the paper's two-column
// shape — and two strategies that build the same tree must cost the same. An
// advised served request must also run what the advisor picks: the chooser
// is one. With the input-struct model beside the plan annotator it failed on
// more than forty of these rows.
func TestAdviseMatchesExplain(t *testing.T) {
	db := paperScaleDB(t)
	consts := db.Constants()
	const nCust = 15000

	// The 18 paper points (three LINENUM encodings × selection/aggregation ×
	// three selectivities: the paper's own two-column query, GROUP BY
	// shipdate for the aggregation) and the shapes outside it.
	var selects []namedQuery
	for _, enc := range []string{tpch.ColLinenum, tpch.ColLinenumRLE, tpch.ColLinenumBV} {
		for _, sel := range []float64{0.05, 0.5, 0.95} {
			fs := []matstore.Filter{lessThan(tpch.ColShipdate, tpch.ShipdateForSelectivity(sel)), lessThan(enc, tpch.LinenumMax)}
			selects = append(selects,
				namedQuery{fmt.Sprintf("paper/%s/%g/sel", enc, sel), tpch.LineitemProj,
					matstore.Query{Output: []string{tpch.ColShipdate, enc}, Filters: fs}},
				namedQuery{fmt.Sprintf("paper/%s/%g/agg", enc, sel), tpch.LineitemProj,
					matstore.Query{Filters: fs, GroupBy: tpch.ColShipdate, AggCol: enc}})
		}
	}
	atLeast := func(col string, v int64) matstore.Filter {
		return matstore.Filter{Col: col, Pred: matstore.AtLeast(v)}
	}
	selects = append(selects,
		namedQuery{"retflagAgg", tpch.LineitemProj, matstore.Query{
			Filters: []matstore.Filter{lessThan(tpch.ColShipdate, tpch.ShipdateForSelectivity(0.5))},
			GroupBy: tpch.ColRetflag, AggCol: tpch.ColQuantity}},
		namedQuery{"sameColumnRange", tpch.LineitemProj, matstore.Query{
			Output:  []string{tpch.ColShipdate, tpch.ColLinenum},
			Filters: []matstore.Filter{atLeast(tpch.ColShipdate, 500), lessThan(tpch.ColShipdate, 1000)}}},
		namedQuery{"fourFilter", tpch.LineitemProj, matstore.Query{
			Output: []string{tpch.ColShipdate, tpch.ColLinenum, tpch.ColQuantity},
			Filters: []matstore.Filter{atLeast(tpch.ColShipdate, 500), lessThan(tpch.ColShipdate, 1500),
				lessThan(tpch.ColLinenum, 5), lessThan(tpch.ColQuantity, 25)}}},
	)

	// same fails unless a == b to 1e-9 relative.
	same := func(what string, a, b matstore.Cost) {
		t.Helper()
		if relDiff(a.CPU, b.CPU) > 1e-9 || relDiff(a.IO, b.IO) > 1e-9 {
			t.Errorf("%s: %v, EXPLAIN's plan %v", what, a, b)
		}
	}
	// explained prices the plan EXPLAIN ran, hot (what it reported) and cold
	// (its private tree re-priced: EXPLAIN itself is always hot).
	explained := func(ex *matstore.Explanation) (hot, cold matstore.Cost) {
		return ex.Modeled, consts.Price(ex.Plan, false).Cost
	}
	// Every shape is also served, the result cache off so that each request
	// builds, prices and runs its plan: its est_cost_us is that plan's price.
	// Advised, it is served over every candidate and must run the strategy
	// the advisor picks at the server's worker budget.
	srv := service.New(db, service.Config{ResultCacheBytes: -1})
	budget := srv.Config().WorkerBudget
	sess := srv.NewSession()
	ctx := context.Background()
	served := func(what string, info service.Info, ex *matstore.Explanation) {
		t.Helper()
		if relDiff(info.EstCostUS, ex.Modeled.Total()) > 1e-9 {
			t.Errorf("%s: served est_cost_us %v, EXPLAIN's modeled total %v", what, info.EstCostUS, ex.Modeled.Total())
		}
	}

	for _, nq := range selects {
		hot, err := db.Advise(nq.proj, nq.q)
		if err != nil {
			t.Fatalf("%s: %v", nq.name, err)
		}
		cold, err := db.AdviseWith(consts, nq.proj, nq.q, false)
		if err != nil {
			t.Fatalf("%s: %v", nq.name, err)
		}
		shapes := map[string]matstore.Strategy{}
		explains := map[matstore.Strategy]*matstore.Explanation{}
		for _, s := range matstore.Strategies {
			ex, err := db.Explain(nq.proj, nq.q, s)
			if err != nil {
				t.Fatalf("%s %v: %v", nq.name, s, err)
			}
			explains[s] = ex
			exHot, exCold := explained(ex)
			same(fmt.Sprintf("%s %v Advise", nq.name, s), hot.Costs[s], exHot)
			same(fmt.Sprintf("%s %v Advise cold", nq.name, s), cold.Costs[s], exCold)
			out, err := sess.Select(ctx, nq.proj, nq.q, s)
			if err != nil {
				t.Fatal(err)
			}
			served(fmt.Sprintf("%s %v served", nq.name, s), out.Info, ex)

			// Shape's first line is the strategy label; the tree follows.
			_, tree, _ := strings.Cut(ex.Plan.Shape(), "\n")
			if twin, ok := shapes[tree]; ok {
				same(fmt.Sprintf("%s %v builds %v's tree: Advise", nq.name, s, twin), hot.Costs[s], hot.Costs[twin])
			}
			shapes[tree] = s
		}
		par, err := db.AdviseParallel(nq.proj, nq.q, budget)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.Select(ctx, nq.proj, nq.q, matstore.AdviseOrder...)
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.Strategy != par.Best {
			t.Errorf("%s served advised: ran %v, AdviseParallel at %d workers picks %v", nq.name, out.Stats.Strategy, budget, par.Best)
		}
		served(fmt.Sprintf("%s served advised", nq.name), out.Info, explains[par.Best])
	}

	// A filterless scan is served only (Advise rejects it).
	scan := matstore.Query{Output: []string{tpch.ColRetflag}}
	for _, s := range matstore.Strategies {
		ex, err := db.Explain(tpch.LineitemProj, scan, s)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.Select(ctx, tpch.LineitemProj, scan, s)
		if err != nil {
			t.Fatal(err)
		}
		served(fmt.Sprintf("filterless scan %v served", s), out.Info, ex)
	}

	for _, sel := range []float64{0.05, 0.5, 0.95, 1.0} {
		q := fkJoin(sel, nCust)
		adv, err := db.AdviseJoin(tpch.OrdersProj, tpch.CustomerProj, q)
		if err != nil {
			t.Fatal(err)
		}
		var bestEx *matstore.Explanation
		for _, rs := range matstore.JoinStrategies {
			ex, err := db.ExplainJoin(tpch.OrdersProj, tpch.CustomerProj, q, rs)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("fkJoin/%g %v AdviseJoin", sel, rs), adv.Costs[rs], ex.Modeled)
			out, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, q, rs)
			if err != nil {
				t.Fatal(err)
			}
			served(fmt.Sprintf("fkJoin/%g %v served", sel, rs), out.Info, ex)
			if rs == adv.Best {
				bestEx = ex
			}
		}
		out, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, q, matstore.JoinStrategies...)
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.RightStrategy != adv.Best {
			t.Errorf("fkJoin/%g served advised: ran %v, AdviseJoin picks %v", sel, out.Stats.RightStrategy, adv.Best)
		}
		served(fmt.Sprintf("fkJoin/%g served advised", sel), out.Info, bestEx)
	}
}
