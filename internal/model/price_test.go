package model

import (
	"slices"
	"testing"

	"matstore/internal/core"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/pred"
)

// The plan-level properties of the model, checked on priced plans: each
// fixture is a literal statistics table, and the trees priced over it are
// the ones core's four builders (and BuildJoinPlan) assemble — the same
// function a stored projection's plans go through.

var builder = core.NewExecutor(nil, core.Options{})

// twoColumn is a projection sorted on (flag, a, b) whose two query columns
// carry the given sizes; a's bounds are [0, 9999] and b's [0, 99], so
// a < 10000·sf has selectivity sf and b < 96 has 0.96.
func twoColumn(tuples float64, a, b plan.ColStats) core.Table {
	a.Tuples, a.Min, a.Max = tuples, 0, 9999
	b.Tuples, b.Min, b.Max = tuples, 0, 99
	return core.StatsTable("t", int64(tuples), map[string]plan.ColStats{"a": a, "b": b})
}

// lineitemTable models the paper's Section 3.7 configuration: RLE shipdate
// (a: 1 block, 2,526 days in each of 3 flag groups) and RLE linenum (b),
// 60,000 tuples.
func lineitemTable() core.Table {
	return twoColumn(60000,
		plan.ColStats{Blocks: 1, RunLen: 23.75, Distinct: 2526, SortRank: 2, Clusters: 3},
		plan.ColStats{Blocks: 5, RunLen: 8, Distinct: 7, SortRank: 3, Clusters: 3 * 2526})
}

// parallelTable is two uncompressed 100-block columns whose predicates emit
// position runs of about 100 (a at sf 0.1) and 10 (b).
func parallelTable() core.Table {
	col := plan.ColStats{Blocks: 100, RunLen: 1, Distinct: 500}
	a, b := col, col
	a.SortRank, a.Clusters = 1, 800
	b.SortRank, b.Clusters = 2, 76800
	return twoColumn(800_000, a, b)
}

// selection is SELECT a, b WHERE a < 10000·sf AND b < 96, or with agg
// SELECT a, SUM(b) … GROUP BY a.
func selection(sf float64, agg bool) core.SelectQuery {
	q := core.SelectQuery{Filters: []core.Filter{
		{Col: "a", Pred: pred.LessThan(int64(sf * 10000))},
		{Col: "b", Pred: pred.LessThan(96)},
	}}
	if agg {
		q.GroupBy, q.AggCol = "a", "b"
	} else {
		q.Output = []string{"a", "b"}
	}
	return q
}

func priceSelection(t *testing.T, m Constants, tab core.Table, q core.SelectQuery, s core.Strategy, hot bool) Estimate {
	t.Helper()
	pl, err := builder.BuildPlanOn(tab, q, s)
	if err != nil {
		t.Fatal(err)
	}
	return m.Price(pl, hot)
}

// advise is the decision procedure over the four strategies' plans at a
// worker count: the pick and every candidate's cost at that count.
func advise(t *testing.T, m Constants, tab core.Table, q core.SelectQuery, hot bool, workers int) (core.Strategy, []Cost) {
	t.Helper()
	best, _, ests, err := m.Choose(len(core.AdviseOrder), func(i int) (*plan.Plan, error) {
		return builder.BuildPlanOn(tab, q, core.AdviseOrder[i])
	}, hot, workers)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]Cost, len(ests))
	for i, e := range ests {
		costs[i] = m.AtWorkers(e, workers)
	}
	return core.AdviseOrder[best], costs
}

func TestSelectionCostMonotoneInSelectivity(t *testing.T) {
	m := Paper
	for _, s := range core.Strategies {
		last := -1.0
		for _, sf := range []float64{0.01, 0.1, 0.3, 0.6, 0.9, 1.0} {
			c := priceSelection(t, m, lineitemTable(), selection(sf, false), s, false).Total()
			if c < last {
				t.Errorf("%v: cost not monotone in selectivity (sf=%v: %v < %v)", s, sf, c, last)
			}
			last = c
		}
	}
}

func TestLMBeatsEMOnCompressedAggregation(t *testing.T) {
	// Figure 12(b): with RLE data and aggregation, LM should win across the
	// selectivity range.
	m := Paper
	for _, sf := range []float64{0.1, 0.5, 0.9} {
		q := selection(sf, true)
		lm := priceSelection(t, m, lineitemTable(), q, core.LMParallel, false).Total()
		em := priceSelection(t, m, lineitemTable(), q, core.EMParallel, false).Total()
		if lm >= em {
			t.Errorf("sf=%v: LM-parallel (%v) should beat EM-parallel (%v) for RLE aggregation", sf, lm, em)
		}
	}
}

func TestAdvisePrefersLMAtLowSelectivity(t *testing.T) {
	m := Paper
	s, _ := advise(t, m, lineitemTable(), selection(0.01, false), false, 1)
	if s == core.EMParallel {
		t.Errorf("Advise at 1%% selectivity chose %v; expected a pipelined/late strategy", s)
	}
	// The paper's heuristic: aggregation -> LM.
	s, _ = advise(t, m, lineitemTable(), selection(0.5, true), false, 1)
	if s != core.LMParallel && s != core.LMPipelined {
		t.Errorf("Advise for aggregation chose %v, want an LM strategy", s)
	}
}

// TestPriceSumsItsNodes: the total is the sum of what the per-node sink sees
// (EXPLAIN's per-node column adds up to its "modeled total"), and annotating
// changes nothing about the price.
func TestPriceSumsItsNodes(t *testing.T) {
	m := Paper
	for _, s := range core.Strategies {
		pl, err := builder.BuildPlanOn(lineitemTable(), selection(0.3, true), s)
		if err != nil {
			t.Fatal(err)
		}
		priced, annotated := m.Price(pl, false), m.AnnotatePlan(pl, false)
		if priced != annotated {
			t.Errorf("%v: Price %+v, AnnotatePlan %+v", s, priced, annotated)
		}
		var sum Cost
		plan.Walk(pl.Root, func(n *plan.Node) {
			if !n.HasModel {
				t.Errorf("%v: %v node not annotated", s, n.Kind)
			}
			sum = sum.Add(n.Modeled.CPU, n.Modeled.IO)
		})
		if !approx(sum.CPU, priced.CPU) || !approx(sum.IO, priced.IO) {
			t.Errorf("%v: nodes sum to %v, total %v", s, sum, priced.Cost)
		}
	}
}

func TestParallelCostMatchesSerialAtOneWorker(t *testing.T) {
	m := Paper
	for _, s := range core.Strategies {
		e := priceSelection(t, m, parallelTable(), selection(0.1, false), s, true)
		for _, w := range []int{0, 1} {
			if got := m.AtWorkers(e, w); got != e.Cost {
				t.Errorf("%v workers=%d: %v, want serial %v", s, w, got, e.Cost)
			}
		}
	}
}

func TestParallelCostDecreasesWithWorkers(t *testing.T) {
	m := Paper
	for _, agg := range []bool{false, true} {
		for _, s := range core.Strategies {
			e := priceSelection(t, m, parallelTable(), selection(0.1, agg), s, true)
			prev := e.Total()
			for _, w := range []int{2, 4, 8} {
				cur := m.AtWorkers(e, w).Total()
				if cur >= prev {
					t.Errorf("agg=%v %v: cost at %d workers (%.1f) not below previous (%.1f)",
						agg, s, w, cur, prev)
				}
				prev = cur
			}
		}
	}
}

func TestParallelCostKeepsIOUnscaled(t *testing.T) {
	// Cold pool: the disk-arm term must not divide across workers.
	m := Paper
	for _, s := range core.Strategies {
		e := priceSelection(t, m, parallelTable(), selection(0.1, false), s, false)
		if par := m.AtWorkers(e, 8); par.IO != e.IO || e.IO <= 0 {
			t.Errorf("%v: parallel IO %.1f, serial IO %.1f", s, par.IO, e.IO)
		}
	}
}

func TestParallelSpeedupBoundedByWorkers(t *testing.T) {
	m := Paper
	for _, s := range core.Strategies {
		e := priceSelection(t, m, parallelTable(), selection(0.1, false), s, true)
		for _, w := range []int{2, 4, 16} {
			sp := m.Speedup(e, w)
			if sp <= 1 || sp > float64(w) {
				t.Errorf("%v: speedup at %d workers = %.2f, want in (1, %d]", s, w, sp, w)
			}
		}
	}
}

func TestAdviseParallelPicksMinimum(t *testing.T) {
	m := Paper
	for _, agg := range []bool{false, true} {
		for _, w := range []int{1, 4} {
			best, costs := advise(t, m, parallelTable(), selection(0.1, agg), true, w)
			bestCost := costs[slices.Index(core.AdviseOrder, best)]
			for i, c := range costs {
				if c.Total() < bestCost.Total() {
					t.Errorf("agg=%v workers=%d: Best=%v(%.1f) but %v is cheaper (%.1f)",
						agg, w, best, bestCost.Total(), core.AdviseOrder[i], c.Total())
				}
			}
		}
	}
	// Ties resolve to the earlier candidate: LM-parallel twice builds one
	// tree at one price, both cheaper than EM-pipelined.
	cands := []core.Strategy{core.EMPipelined, core.LMParallel, core.LMParallel}
	best, _, ests, err := m.Choose(len(cands), func(i int) (*plan.Plan, error) {
		return builder.BuildPlanOn(lineitemTable(), selection(0.1, false), cands[i])
	}, true, 1)
	if err != nil || best != 1 || ests[1].Total() != ests[2].Total() || ests[0].Total() <= ests[1].Total() {
		t.Errorf("Choose tie = %d, %v (costs %v), want the first of the two cheapest equal plans (1)", best, err, ests)
	}
}

// joinCost prices the Figure 13 experiment shape: a 10:1 orders ⋈ customer
// FK join with one payload column a side, at outer selectivity sf.
func joinCost(t *testing.T, m Constants, sf float64, rs operators.RightStrategy, hot bool) Cost {
	t.Helper()
	pl, err := joinPlan(sf, rs)
	if err != nil {
		t.Fatal(err)
	}
	return m.Price(pl, hot).Cost
}

// joinPlan builds the Figure 13 join plan under rs.
func joinPlan(sf float64, rs operators.RightStrategy) (*plan.Plan, error) {
	outer := plan.ColStats{Blocks: 2000, Tuples: 1_500_000, RunLen: 1, Min: 0, Max: 149_999, Distinct: 150_000}
	inner := plan.ColStats{Blocks: 200, Tuples: 150_000, RunLen: 1, Min: 0, Max: 149_999, Distinct: 15_000}
	orders := core.StatsTable("orders", 1_500_000, map[string]plan.ColStats{"custkey": outer, "shipdate": outer})
	customer := core.StatsTable("customer", 150_000, map[string]plan.ColStats{"custkey": inner, "nationcode": inner})
	return builder.BuildJoinPlanOn(orders, customer, core.JoinQuery{
		LeftKey: "custkey", LeftPred: pred.LessThan(int64(sf * 150_000)), LeftOutput: []string{"shipdate"},
		RightKey: "custkey", RightOutput: []string{"nationcode"},
	}, rs)
}

// adviseJoin is the decision procedure over the three inner-table strategies'
// plans: the pick and its serial cost.
func adviseJoin(t *testing.T, m Constants, sf float64, hot bool) (operators.RightStrategy, Cost) {
	t.Helper()
	best, _, ests, err := m.Choose(len(JoinStrategies), func(i int) (*plan.Plan, error) {
		return joinPlan(sf, JoinStrategies[i])
	}, hot, 1)
	if err != nil {
		t.Fatal(err)
	}
	return JoinStrategies[best], ests[best].Cost
}

// TestAdviseJoinFigure13Shape pins the advisor's ordering of the three
// inner-table strategies across the selectivity sweep — the qualitative
// shape of Figure 13. Cold (full scan I/O charged), the three regimes
// appear in order: sending only the join column wins when almost nothing is
// probed, the compressed multi-column hybrid wins the low-selectivity band,
// and early materialization wins once output volume amortizes its build.
func TestAdviseJoinFigure13Shape(t *testing.T) {
	m := Paper
	cold := []struct {
		sf   float64
		want operators.RightStrategy
	}{
		{0.0001, operators.RightSingleColumn},
		{0.001, operators.RightSingleColumn},
		{0.02, operators.RightMultiColumn},
		{0.05, operators.RightMultiColumn},
		{0.3, operators.RightMaterialized},
		{1.0, operators.RightMaterialized},
	}
	for _, tc := range cold {
		best, cost := adviseJoin(t, m, tc.sf, false)
		if best != tc.want {
			t.Errorf("cold sf=%v: advisor chose %v, want %v", tc.sf, best, tc.want)
		}
		if cost.Total() <= 0 {
			t.Errorf("cold sf=%v: nonpositive best cost %v", tc.sf, cost)
		}
	}

	// Warm pool: I/O vanishes, so the single-column strategy's cheap build
	// loses its edge, but the low/high split must remain — materialized never
	// wins the lowest point and always wins full selectivity.
	if lowBest, _ := adviseJoin(t, m, 0.001, true); lowBest == operators.RightMaterialized {
		t.Errorf("warm sf=0.001: materialized should not win the low end")
	}
	if highBest, _ := adviseJoin(t, m, 1, true); highBest != operators.RightMaterialized {
		t.Errorf("warm sf=1: advisor chose %v, want right-materialized", highBest)
	}

	// The ordering must flip exactly once between materialized and the
	// cheaper builds as selectivity rises (all cost curves are affine in SF,
	// Figure 13's straight lines).
	prevMatBest := false
	flips := 0
	for _, sf := range []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
		best, _ := adviseJoin(t, m, sf, true)
		matBest := best == operators.RightMaterialized
		if matBest != prevMatBest {
			flips++
		}
		prevMatBest = matBest
	}
	if flips != 1 {
		t.Errorf("materialized should take over exactly once across the sweep, flipped %d times", flips)
	}
}

// TestJoinCostMonotoneInSelectivity: every strategy's end-to-end cost grows
// with selectivity (more probes, more output).
func TestJoinCostMonotoneInSelectivity(t *testing.T) {
	m := Paper
	for _, rs := range JoinStrategies {
		prev := -1.0
		for _, sf := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
			c := joinCost(t, m, sf, rs, true).Total()
			if c <= prev {
				t.Errorf("%v: cost not monotone at sf=%v (%.0f <= %.0f)", rs, sf, c, prev)
			}
			prev = c
		}
	}
}
