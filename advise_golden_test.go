package matstore_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"matstore"
	"matstore/internal/tpch"
)

// This file pins what the one-composition refactor (PR 17) must not move:
// the advisor's picks and the admission sizer's estimates on the request
// shapes csperf serves (internal/perf/schedule.go, re-stated here), at the
// benchmark's scale 0.1 / seed 42. testdata/advise_golden.json was captured
// at the parent commit (1503491, the input-struct model) with
// -update-advise-golden; it is not meant to be regenerated — a diff against
// it is the finding.

var updateAdviseGolden = flag.Bool("update-advise-golden", false,
	"rewrite testdata/advise_golden.json from this commit's advisor (parent-capture only)")

const adviseGoldenPath = "testdata/advise_golden.json"

var (
	paperOnce sync.Once
	paperDir  string
	paperErr  error
)

// paperScaleDB opens the benchmark's dataset (scale 0.1, seed 42), generated
// once per test binary.
func paperScaleDB(t testing.TB) *matstore.DB {
	t.Helper()
	paperOnce.Do(func() {
		if paperDir, paperErr = os.MkdirTemp("", "matstore-scale01"); paperErr == nil {
			paperErr = matstore.Generate(paperDir, 0.1, 42)
		}
	})
	if paperErr != nil {
		t.Fatal(paperErr)
	}
	db, err := matstore.Open(paperDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// goldenSelect is one selection shape's pinned values.
type goldenSelect struct {
	// Best[i] is AdviseParallel(...).Best at goldenWorkers[i].
	Best []string `json:"best"`
	// EstUS maps strategy → EstimateSelectCost total (µs).
	EstUS map[string]float64 `json:"est_us"`
}

// goldenJoin is one join shape's pinned values.
type goldenJoin struct {
	Best  string             `json:"best"`
	EstUS map[string]float64 `json:"est_us"`
}

type adviseGolden struct {
	Selects map[string]goldenSelect `json:"selects"`
	Joins   map[string]goldenJoin   `json:"joins"`
}

var goldenWorkers = []int{1, 2, 8}

type namedQuery struct {
	name, proj string
	q          matstore.Query
}

func lessThan(col string, v int64) matstore.Filter {
	return matstore.Filter{Col: col, Pred: matstore.LessThan(v)}
}

// csperfSelectShapes restates schedule.go's selection shapes: the
// two-predicate lineitem selection and the one-filter retflag aggregation
// (serve_hot's fixed selectivities plus a spread standing in for serve_cold's
// distinct constants), paper_select's sweep (three LINENUM encodings,
// selection and four-column aggregation), and coord_mixed's orders shapes.
func csperfSelectShapes(nCust int64) []namedQuery {
	var out []namedQuery
	for _, sel := range []float64{0.01, 0.03, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9} {
		ship := tpch.ShipdateForSelectivity(sel)
		out = append(out, namedQuery{fmt.Sprintf("lineitemSelection/%g", sel), tpch.LineitemProj, matstore.Query{
			Output:  []string{tpch.ColShipdate, tpch.ColLinenum},
			Filters: []matstore.Filter{lessThan(tpch.ColShipdate, ship), lessThan(tpch.ColLinenum, tpch.LinenumMax)},
		}})
		out = append(out, namedQuery{fmt.Sprintf("lineitemAgg/%g", sel), tpch.LineitemProj, matstore.Query{
			Filters: []matstore.Filter{lessThan(tpch.ColShipdate, ship)},
			GroupBy: tpch.ColRetflag, AggCol: tpch.ColQuantity,
		}})
	}
	for _, enc := range []string{tpch.ColLinenum, tpch.ColLinenumRLE, tpch.ColLinenumBV} {
		for _, sel := range []float64{0.02, 0.2, 0.4, 0.6, 0.8, 0.98} {
			fs := []matstore.Filter{lessThan(tpch.ColShipdate, tpch.ShipdateForSelectivity(sel)), lessThan(enc, tpch.LinenumMax)}
			out = append(out, namedQuery{fmt.Sprintf("paperSelect/%s/%g/sel", enc, sel), tpch.LineitemProj,
				matstore.Query{Output: []string{tpch.ColShipdate, enc}, Filters: fs}})
			out = append(out, namedQuery{fmt.Sprintf("paperSelect/%s/%g/agg", enc, sel), tpch.LineitemProj,
				matstore.Query{Filters: fs, GroupBy: tpch.ColRetflag, AggCol: tpch.ColQuantity}})
		}
	}
	for _, sel := range []float64{0.1, 0.5, 0.9} {
		fs := []matstore.Filter{lessThan(tpch.ColCustkey, tpch.CustkeyForSelectivity(sel, nCust))}
		out = append(out, namedQuery{fmt.Sprintf("ordersSelection/%g", sel), tpch.OrdersProj,
			matstore.Query{Output: []string{tpch.ColCustkey, tpch.ColOrderShipdate}, Filters: fs}})
		out = append(out, namedQuery{fmt.Sprintf("ordersAgg/%g", sel), tpch.OrdersProj,
			matstore.Query{Filters: fs, GroupBy: tpch.ColCustkey, AggCol: tpch.ColOrderShipdate}})
	}
	return out
}

// fkJoin is schedule.go's joinRequest: orders ⋈ customer on custkey with
// one payload column a side. sel >= 1 drops the outer predicate.
func fkJoin(sel float64, nCust int64) matstore.JoinQuery {
	q := matstore.JoinQuery{
		LeftKey: tpch.ColCustkey, RightKey: tpch.ColCustkey,
		LeftOutput: []string{tpch.ColOrderShipdate}, RightOutput: []string{tpch.ColNationcode},
	}
	if sel < 1 {
		q.LeftPred = matstore.LessThan(tpch.CustkeyForSelectivity(sel, nCust))
	}
	return q
}

var goldenJoinSels = []float64{0.05, 0.1, 0.3, 0.5, 0.9, 0.95, 1.0}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestAdviseGoldenOnCsperfShapes(t *testing.T) {
	db := paperScaleDB(t)
	const nCust = 15000
	got := adviseGolden{Selects: map[string]goldenSelect{}, Joins: map[string]goldenJoin{}}
	for _, nq := range csperfSelectShapes(nCust) {
		g := goldenSelect{EstUS: map[string]float64{}}
		for _, w := range goldenWorkers {
			adv, err := db.AdviseParallel(nq.proj, nq.q, w)
			if err != nil {
				t.Fatalf("%s: %v", nq.name, err)
			}
			g.Best = append(g.Best, adv.Best.String())
		}
		for _, s := range matstore.Strategies {
			c, err := db.EstimateSelectCost(nq.proj, nq.q, s)
			if err != nil {
				t.Fatalf("%s: %v", nq.name, err)
			}
			g.EstUS[s.String()] = c.Total()
		}
		got.Selects[nq.name] = g
	}
	for _, sel := range goldenJoinSels {
		q := fkJoin(sel, nCust)
		adv, err := db.AdviseJoin(tpch.OrdersProj, tpch.CustomerProj, q)
		if err != nil {
			t.Fatal(err)
		}
		g := goldenJoin{Best: adv.Best.String(), EstUS: map[string]float64{}}
		for _, rs := range matstore.JoinStrategies {
			c, err := db.EstimateJoinCost(tpch.OrdersProj, tpch.CustomerProj, q, rs)
			if err != nil {
				t.Fatal(err)
			}
			g.EstUS[rs.String()] = c.Total()
		}
		got.Joins[fmt.Sprintf("fkJoin/%g", sel)] = g
	}

	if *updateAdviseGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(adviseGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(adviseGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want adviseGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Selects) != len(got.Selects) || len(want.Joins) != len(got.Joins) {
		t.Fatalf("golden has %d selects / %d joins, this run %d / %d",
			len(want.Selects), len(want.Joins), len(got.Selects), len(got.Joins))
	}
	compareGolden(t, want, got)
}

// movedPicks are the advisor picks that differ from the parent, each with its
// reason. One-filter selections are where the input-struct model was furthest
// off: it priced LM as two column scans plus an AND although both LM builders
// return one DS1 under a MERGE, so near selectivity 1 it preferred EM-parallel
// by 4% where the built plans say LM by 4%. csperf never asks the advisor
// about this shape (coord_mixed sends it with an explicit strategy).
var movedPicks = map[string]string{"ordersSelection/0.9": "LM-pipelined"}

// joinDeltaUS are the strategy-independent terms EXPLAIN always charged and
// JoinCost did not, at the outer selectivities ISSUE 17 names: the probe-key
// and outer-payload DS3 gathers (symmetric in sf·(1−sf) through the position
// run length), and no outer scan when there is no outer predicate.
var joinDeltaUS = map[string]float64{"fkJoin/0.05": 528.0, "fkJoin/0.5": 2775.8, "fkJoin/0.95": 528.0, "fkJoin/1": -4799.3}

func compareGolden(t *testing.T, want, got adviseGolden) {
	for name, w := range want.Selects {
		g := got.Selects[name]
		for i := range w.Best {
			wantBest := w.Best[i]
			if moved, ok := movedPicks[name]; ok {
				wantBest = moved
			}
			if g.Best[i] != wantBest {
				t.Errorf("%s workers=%d: best %s, want %s (parent %s)", name, goldenWorkers[i], g.Best[i], wantBest, w.Best[i])
			}
		}
		// The two-predicate, two-column selections are the shape the
		// input-struct model was written for: their estimates must not move.
		// Every other shape moves to the price of the plan that runs
		// (TestAdviseMatchesExplain pins those to EXPLAIN instead).
		if !strings.HasPrefix(name, "lineitemSelection/") && !strings.HasSuffix(name, "/sel") {
			continue
		}
		for s, c := range w.EstUS {
			if d := relDiff(c, g.EstUS[s]); d > 1e-6 {
				t.Errorf("%s %s: estimate %.3fµs, parent %.3fµs (rel %.2g)", name, s, g.EstUS[s], c, d)
			}
		}
	}
	for name, w := range want.Joins {
		g := got.Joins[name]
		if g.Best != w.Best {
			t.Errorf("%s: best %s, parent %s", name, g.Best, w.Best)
		}
		// Join estimates may differ from the parent only by one term common
		// to the three strategies (so no pick can move): 12% at the selectivities
		// the issue names, 15% at worst (0.3, where the gathers peak relative to
		// the probe).
		first := g.EstUS[matstore.RightMaterialized.String()] - w.EstUS[matstore.RightMaterialized.String()]
		for s, c := range w.EstUS {
			if delta := g.EstUS[s] - c; math.Abs(delta-first) > 1e-6*c || math.Abs(delta) > 0.16*c {
				t.Errorf("%s %s: estimate %.1fµs, parent %.1fµs: delta %+.1f, right-materialized's %+.1f", name, s, g.EstUS[s], c, delta, first)
			}
		}
		if pinned, ok := joinDeltaUS[name]; ok && math.Abs(first-pinned) > 0.1 {
			t.Errorf("%s: strategy-independent delta %+.1fµs, want %+.1f", name, first, pinned)
		}
	}
}
