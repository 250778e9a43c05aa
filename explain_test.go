package matstore_test

import (
	"reflect"
	"strings"
	"testing"

	"matstore"
	"matstore/internal/core"
	"matstore/internal/plan"
	"matstore/internal/tpch"
)

// TestExplainAllStrategies: Explain must execute the query (same result and
// row count as Select), annotate every node with a model prediction, and
// record observed rows on every node that produced output.
func TestExplainAllStrategies(t *testing.T) {
	db := open(t, matstore.Options{Exec: core.Options{ChunkSize: 1024}})
	q := matstore.Query{
		Output: []string{tpch.ColShipdate, tpch.ColLinenum},
		Filters: []matstore.Filter{
			{Col: tpch.ColShipdate, Pred: matstore.AtLeast(100)},
			{Col: tpch.ColShipdate, Pred: matstore.LessThan(900)},
			{Col: tpch.ColLinenum, Pred: matstore.LessThan(5)},
		},
		Parallelism: 2,
	}
	for _, s := range matstore.Strategies {
		ex, err := db.Explain(tpch.LineitemProj, q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		res, stats, err := db.Select(tpch.LineitemProj, q, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ex.Result.Cols, res.Cols) {
			t.Errorf("%v: explain result differs from Select", s)
		}
		if ex.Stats.TuplesOut != stats.TuplesOut {
			t.Errorf("%v: explain TuplesOut = %d, Select = %d", s, ex.Stats.TuplesOut, stats.TuplesOut)
		}
		if ex.Modeled.Total() <= 0 {
			t.Errorf("%v: modeled total = %v", s, ex.Modeled)
		}
		// Every node must carry a model annotation; the tree must show both
		// columns.
		plan.Walk(ex.Plan.Root, func(n *plan.Node) {
			if !n.HasModel {
				t.Errorf("%v: node %v has no model annotation", s, n.Kind)
			}
		})
		if !strings.Contains(ex.Tree, "model:") || !strings.Contains(ex.Tree, "obs:") {
			t.Errorf("%v: tree missing annotations:\n%s", s, ex.Tree)
		}
		// The root's observed cardinality is the result cardinality.
		if got := ex.Plan.Root.Obs.Rows.Load(); got != stats.TuplesOut {
			t.Errorf("%v: root observed rows = %d, want %d", s, got, stats.TuplesOut)
		}
		// The consecutive shipdate predicates must fuse everywhere except
		// EM-parallel (whose SPC runs one kernel per filter).
		if s != matstore.EMParallel {
			if !strings.Contains(ex.Tree, "[fused x2]") {
				t.Errorf("%v: fused scan not visible in tree:\n%s", s, ex.Tree)
			}
		}
	}
}

// TestExplainAggregation: the aggregation root must render with observed
// group counts.
func TestExplainAggregation(t *testing.T) {
	db := open(t, matstore.Options{Exec: core.Options{ChunkSize: 1024}})
	q := matstore.Query{
		Filters: []matstore.Filter{{Col: tpch.ColShipdate, Pred: matstore.LessThan(900)}},
		GroupBy: tpch.ColRetflag,
		AggCol:  tpch.ColQuantity,
	}
	for _, s := range matstore.Strategies {
		ex, err := db.Explain(tpch.LineitemProj, q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !strings.Contains(ex.Tree, "AGG sum(quantity) group by returnflag") {
			t.Errorf("%v: aggregation root missing:\n%s", s, ex.Tree)
		}
		if got := ex.Plan.Root.Obs.Rows.Load(); got != int64(ex.Stats.Groups) {
			t.Errorf("%v: root observed rows = %d, want groups %d", s, got, ex.Stats.Groups)
		}
		if ex.Stats.Groups != 3 {
			t.Errorf("%v: groups = %d, want 3", s, ex.Stats.Groups)
		}
	}
}

// TestExplainDoesNotDisturbSelect: running Explain then Select must produce
// identical results (observation is side-effect-free on plan semantics).
func TestExplainDoesNotDisturbSelect(t *testing.T) {
	db := open(t)
	q := matstore.Query{
		Output:  []string{tpch.ColQuantity},
		Filters: []matstore.Filter{{Col: tpch.ColLinenum, Pred: matstore.LessThan(4)}},
	}
	before, _, err := db.Select(tpch.LineitemProj, q, matstore.LMPipelined)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Explain(tpch.LineitemProj, q, matstore.LMPipelined); err != nil {
		t.Fatal(err)
	}
	after, _, err := db.Select(tpch.LineitemProj, q, matstore.LMPipelined)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Cols, after.Cols) {
		t.Error("Select result changed after Explain")
	}
}

// TestExplainJoin: ExplainJoin must execute the join (same result as Join),
// annotate the build, probe and scan nodes with Section 4.3 model terms, and
// render the join tree with observed counters including the radix build
// phase.
func TestExplainJoin(t *testing.T) {
	db := open(t, matstore.Options{Exec: core.Options{ChunkSize: 1024}})
	q := matstore.JoinQuery{
		LeftKey:     "custkey",
		LeftPred:    matstore.LessThan(200),
		LeftOutput:  []string{"shipdate"},
		RightKey:    "custkey",
		RightOutput: []string{"nationcode"},
		Parallelism: 2,
	}
	for _, rs := range []matstore.RightStrategy{
		matstore.RightMaterialized, matstore.RightMultiColumn, matstore.RightSingleColumn,
	} {
		ex, err := db.ExplainJoin("orders", "customer", q, rs)
		if err != nil {
			t.Fatalf("%v: %v", rs, err)
		}
		res, stats, err := db.Join("orders", "customer", q, rs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ex.Result.Cols, res.Cols) {
			t.Errorf("%v: explain result differs from Join", rs)
		}
		if ex.JoinStats == nil || ex.JoinStats.RightStrategy != rs {
			t.Fatalf("%v: JoinStats = %+v", rs, ex.JoinStats)
		}
		if ex.JoinStats.Join.OutputTuples != stats.Join.OutputTuples {
			t.Errorf("%v: explain OutputTuples = %d, Join = %d",
				rs, ex.JoinStats.Join.OutputTuples, stats.Join.OutputTuples)
		}
		if ex.Strategy != matstore.LMPipelined {
			t.Errorf("%v: outer shape = %v, want %v", rs, ex.Strategy, matstore.LMPipelined)
		}
		if ex.Modeled.Total() <= 0 {
			t.Errorf("%v: modeled total = %v", rs, ex.Modeled)
		}
		plan.Walk(ex.Plan.Root, func(n *plan.Node) {
			if !n.HasModel {
				t.Errorf("%v: node %v has no model annotation", rs, n.Kind)
			}
		})
		for _, want := range []string{"JOINBUILD", "JOINPROBE", "model:", "obs:", "partitions="} {
			if !strings.Contains(ex.Tree, want) {
				t.Errorf("%v: tree missing %q:\n%s", rs, want, ex.Tree)
			}
		}
		if !strings.Contains(ex.String(), "join: right="+rs.String()) {
			t.Errorf("%v: String() missing join summary:\n%s", rs, ex.String())
		}
	}
}
