package matstore_test

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"matstore"
)

var (
	apiOnce sync.Once
	apiDir  string
	apiErr  error
)

func apiData(t *testing.T) string {
	t.Helper()
	apiOnce.Do(func() {
		apiDir, apiErr = os.MkdirTemp("", "matstore-api-test")
		if apiErr != nil {
			return
		}
		apiErr = matstore.Generate(apiDir, 0.002, 5)
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, dir := range []string{apiDir, paperDir} {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	benchCleanup()
	os.Exit(code)
}

func open(t *testing.T, opts ...matstore.Options) *matstore.DB {
	t.Helper()
	db, err := matstore.Open(apiData(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenAndList(t *testing.T) {
	db := open(t)
	want := []string{"customer", "lineitem", "orders"}
	if got := db.Projections(); !reflect.DeepEqual(got, want) {
		t.Errorf("Projections = %v, want %v", got, want)
	}
}

func TestPublicSelectAllStrategies(t *testing.T) {
	db := open(t)
	q := matstore.Query{
		Output: []string{"shipdate", "linenum"},
		Filters: []matstore.Filter{
			{Col: "shipdate", Pred: matstore.LessThan(1200)},
			{Col: "linenum", Pred: matstore.LessThan(7)},
		},
	}
	var firstRows int
	var firstSum int64
	for i, s := range matstore.Strategies {
		res, stats, err := db.Select("lineitem", q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.NumRows() == 0 {
			t.Fatalf("%v: empty result", s)
		}
		if i == 0 {
			firstRows, firstSum = res.NumRows(), stats.OutputChecksum
		} else if res.NumRows() != firstRows || stats.OutputChecksum != firstSum {
			t.Errorf("%v: rows/checksum %d/%d differ from %d/%d",
				s, res.NumRows(), stats.OutputChecksum, firstRows, firstSum)
		}
	}
}

func TestPublicAggregation(t *testing.T) {
	db := open(t)
	q := matstore.Query{
		Filters: []matstore.Filter{{Col: "returnflag", Pred: matstore.Equals(1)}},
		GroupBy: "returnflag",
		AggCol:  "quantity",
	}
	res, stats, err := db.Select("lineitem", q, matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || stats.Groups != 1 {
		t.Errorf("rows=%d groups=%d, want 1", res.NumRows(), stats.Groups)
	}
	if res.Columns[1] != "sum(quantity)" {
		t.Errorf("agg column name = %q", res.Columns[1])
	}
}

func TestPublicAggregateFunctions(t *testing.T) {
	db := open(t)
	for _, tc := range []struct {
		fn   matstore.AggFunc
		name string
	}{
		{matstore.Sum, "sum(quantity)"},
		{matstore.Count, "count(quantity)"},
		{matstore.Avg, "avg(quantity)"},
		{matstore.Min, "min(quantity)"},
		{matstore.Max, "max(quantity)"},
	} {
		q := matstore.Query{
			Filters: []matstore.Filter{{Col: "returnflag", Pred: matstore.MatchAll}},
			GroupBy: "returnflag",
			AggCol:  "quantity",
			Agg:     tc.fn,
		}
		res, _, err := db.Select("lineitem", q, matstore.LMParallel)
		if err != nil {
			t.Fatalf("%v: %v", tc.fn, err)
		}
		if res.Columns[1] != tc.name {
			t.Errorf("%v: column %q, want %q", tc.fn, res.Columns[1], tc.name)
		}
		if res.NumRows() != 3 {
			t.Errorf("%v: %d groups", tc.fn, res.NumRows())
		}
	}
	// Quantity is 1..50 uniform: min 1, max 50 in every group at this size.
	q := matstore.Query{
		Filters: []matstore.Filter{{Col: "returnflag", Pred: matstore.MatchAll}},
		GroupBy: "returnflag", AggCol: "quantity", Agg: matstore.Max,
	}
	res, _, _ := db.Select("lineitem", q, matstore.EMParallel)
	v, _ := res.Col("max(quantity)")
	for _, x := range v {
		if x != 50 {
			t.Errorf("max(quantity) = %d, want 50", x)
		}
	}
	if _, err := matstore.ParseAggFunc("median"); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

// TestIntroThreePredicateExample runs the paper's introductory example: three
// selection predicates σ1, σ2, σ3 over three columns of one relation, σ1
// most selective — the scenario motivating late materialization.
func TestIntroThreePredicateExample(t *testing.T) {
	db := open(t)
	q := matstore.Query{
		Output: []string{"shipdate", "linenum", "quantity"},
		Filters: []matstore.Filter{
			{Col: "shipdate", Pred: matstore.LessThan(250)}, // σ1: ~10%
			{Col: "quantity", Pred: matstore.LessThan(40)},  // σ2: ~78%
			{Col: "linenum", Pred: matstore.LessThan(7)},    // σ3: ~96%
		},
	}
	var first *matstore.Result
	var firstChecksum int64
	for i, s := range matstore.Strategies {
		res, stats, err := db.Select("lineitem", q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if i == 0 {
			first, firstChecksum = res, stats.OutputChecksum
			if res.NumRows() == 0 {
				t.Fatal("intro example returned nothing")
			}
		} else if res.NumRows() != first.NumRows() || stats.OutputChecksum != firstChecksum {
			t.Errorf("%v: disagrees on the three-predicate query", s)
		}
		// LM constructs only the surviving tuples; EM strategies construct
		// intermediates at every step.
		if s == matstore.LMParallel && stats.TuplesConstructed != stats.TuplesOut {
			t.Errorf("LM-parallel constructed %d tuples for %d outputs",
				stats.TuplesConstructed, stats.TuplesOut)
		}
	}
}

func TestPublicJoin(t *testing.T) {
	db := open(t)
	q := matstore.JoinQuery{
		LeftKey:     "custkey",
		LeftPred:    matstore.MatchAll,
		LeftOutput:  []string{"shipdate"},
		RightKey:    "custkey",
		RightOutput: []string{"nationcode"},
	}
	var want int
	for i, rs := range []matstore.RightStrategy{
		matstore.RightMaterialized, matstore.RightMultiColumn, matstore.RightSingleColumn,
	} {
		res, stats, err := db.Join("orders", "customer", q, rs)
		if err != nil {
			t.Fatalf("%v: %v", rs, err)
		}
		if i == 0 {
			want = res.NumRows()
			if want == 0 {
				t.Fatal("join produced nothing")
			}
		} else if res.NumRows() != want {
			t.Errorf("%v: %d rows, want %d", rs, res.NumRows(), want)
		}
		if stats.TuplesOut != int64(want) {
			t.Errorf("%v: TuplesOut = %d", rs, stats.TuplesOut)
		}
	}
}

func TestAdvise(t *testing.T) {
	db := open(t)
	// Aggregation query: the paper's heuristic says LM should win.
	q := matstore.Query{
		Filters: []matstore.Filter{
			{Col: "shipdate", Pred: matstore.LessThan(1200)},
			{Col: "linenum_rle", Pred: matstore.LessThan(7)},
		},
		GroupBy: "shipdate",
		AggCol:  "linenum_rle",
	}
	adv, err := db.Advise("lineitem", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Costs) != 4 {
		t.Fatalf("Costs has %d entries", len(adv.Costs))
	}
	if adv.Best != matstore.LMParallel && adv.Best != matstore.LMPipelined {
		t.Errorf("Advise(aggregation) = %v, want an LM strategy (paper heuristic)", adv.Best)
	}
	for s, c := range adv.Costs {
		if c.Total() <= 0 {
			t.Errorf("%v predicted cost %v", s, c)
		}
	}
	best := adv.Costs[adv.Best].Total()
	for s, c := range adv.Costs {
		if c.Total() < best {
			t.Errorf("Best=%v but %v is cheaper", adv.Best, s)
		}
	}
	// Advise without filters is rejected.
	if _, err := db.Advise("lineitem", matstore.Query{Output: []string{"shipdate"}}); err == nil {
		t.Error("filterless Advise accepted")
	}
}

func TestAdviseColdChargesIO(t *testing.T) {
	db := open(t)
	q := matstore.Query{
		Output: []string{"shipdate", "linenum"},
		Filters: []matstore.Filter{
			{Col: "shipdate", Pred: matstore.LessThan(1200)},
			{Col: "linenum", Pred: matstore.LessThan(7)},
		},
	}
	hot, err := db.AdviseWith(matstore.PaperConstants(), "lineitem", q, true)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := db.AdviseWith(matstore.PaperConstants(), "lineitem", q, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range matstore.Strategies {
		if cold.Costs[s].IO <= hot.Costs[s].IO {
			t.Errorf("%v: cold IO %v not above hot IO %v", s, cold.Costs[s].IO, hot.Costs[s].IO)
		}
	}
}

func TestPoolBounded(t *testing.T) {
	db := open(t, matstore.Options{PoolBytes: 1 << 20})
	q := matstore.Query{Output: []string{"quantity"}}
	if _, _, err := db.Select("lineitem", q, matstore.EMParallel); err != nil {
		t.Fatal(err)
	}
	if db.PoolStats().Reads == 0 {
		t.Error("no reads recorded")
	}
}

func TestParseStrategyPublic(t *testing.T) {
	s, err := matstore.ParseStrategy("lm-parallel")
	if err != nil || s != matstore.LMParallel {
		t.Errorf("ParseStrategy = %v, %v", s, err)
	}
}

func TestCalibratePublic(t *testing.T) {
	c := matstore.Calibrate()
	if c.FC <= 0 || c.TICTUP <= 0 {
		t.Errorf("Calibrate = %+v", c)
	}
	if matstore.PaperConstants().SEEK != 2500 {
		t.Error("paper constants wrong")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := matstore.Open("/no/such/dir"); err == nil {
		t.Error("Open of missing dir succeeded")
	}
}
