package core

import (
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"matstore/internal/encoding"
	"matstore/internal/operators"
	"matstore/internal/oracle"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

var (
	dataOnce sync.Once
	dataDir  string
	dataErr  error
)

// testData generates a small TPC-H-shaped dataset once per test binary.
func testData(t *testing.T) string {
	t.Helper()
	dataOnce.Do(func() {
		dataDir, dataErr = os.MkdirTemp("", "matstore-core-test")
		if dataErr != nil {
			return
		}
		dataErr = tpch.Generate(dataDir, tpch.Config{Scale: 0.002, Seed: 1}) // 12k lineitem rows
	})
	if dataErr != nil {
		t.Fatal(dataErr)
	}
	return dataDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if dataDir != "" {
		os.RemoveAll(dataDir)
	}
	os.Exit(code)
}

func openDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.OpenDB(testData(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func lineitemQuery(linenumCol string, x, y int64) SelectQuery {
	return SelectQuery{
		Output: []string{tpch.ColShipdate, linenumCol},
		Filters: []Filter{
			{Col: tpch.ColShipdate, Pred: pred.LessThan(x)},
			{Col: linenumCol, Pred: pred.LessThan(y)},
		},
	}
}

func resultsEqual(a, b *rows.Result) bool {
	return reflect.DeepEqual(a.Columns, b.Columns) && reflect.DeepEqual(oracle.Columns(a), oracle.Columns(b))
}

// resultOf lists reference columns as the one chunk of a result (none when
// they hold no row).
func resultOf(names []string, cols [][]int64) *rows.Result {
	res := rows.NewResult(names...)
	if len(cols) > 0 && len(cols[0]) > 0 {
		for c, dst := range res.AddChunk(len(cols[0])) {
			copy(dst, cols[c])
		}
	}
	return res
}

// naiveSelect computes the expected result with internal/oracle's
// row-at-a-time reference.
func naiveSelect(t *testing.T, p *storage.Projection, q SelectQuery) *rows.Result {
	t.Helper()
	col := func(name string) *storage.Column {
		c, err := p.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	filters := make([]oracle.Filter, len(q.Filters))
	for i, f := range q.Filters {
		filters[i] = oracle.Filter{Col: col(f.Col), Pred: f.Pred}
	}
	cols := make([][]int64, 2)
	var err error
	if q.Aggregating() {
		cols[0], cols[1], err = oracle.Aggregate(filters, col(q.GroupBy), col(q.AggCol), q.Agg.String())
	} else {
		out := make([]*storage.Column, len(q.Output))
		for i, name := range q.Output {
			out[i] = col(name)
		}
		cols, err = oracle.Select(filters, out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return resultOf(q.outputNames(), cols)
}

func decompressAll(t *testing.T, p *storage.Projection, name string) []int64 {
	t.Helper()
	col, err := p.Column(name)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := col.Window(col.Extent())
	if err != nil {
		t.Fatal(err)
	}
	return mc.Decompress(nil)
}

func TestStrategyEquivalenceSelection(t *testing.T) {
	db := openDB(t)
	p, err := db.Projection(tpch.LineitemProj)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 1024})
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		linenum := tpch.LinenumColumn(enc)
		for _, sel := range []float64{0, 0.05, 0.5, 1.0} {
			q := lineitemQuery(linenum, tpch.ShipdateForSelectivity(sel), tpch.LinenumMax)
			want := naiveSelect(t, p, q)
			for _, s := range Strategies {
				got, stats, err := exec.Select(p, q, s)
				if err != nil {
					t.Fatalf("%v/%v sel=%v: %v", enc, s, sel, err)
				}
				if !resultsEqual(got, want) {
					t.Errorf("%v/%v sel=%v: result differs from naive (%d vs %d rows)",
						enc, s, sel, got.NumRows(), want.NumRows())
				}
				if stats.TuplesOut != int64(want.NumRows()) {
					t.Errorf("%v/%v: TuplesOut = %d, want %d", enc, s, stats.TuplesOut, want.NumRows())
				}
			}
		}
	}
}

func TestStrategyEquivalenceAggregation(t *testing.T) {
	db := openDB(t)
	p, err := db.Projection(tpch.LineitemProj)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 1024})
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		linenum := tpch.LinenumColumn(enc)
		q := SelectQuery{
			Filters: []Filter{
				{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(0.3))},
				{Col: linenum, Pred: pred.LessThan(tpch.LinenumMax)},
			},
			GroupBy: tpch.ColShipdate,
			AggCol:  linenum,
		}
		want := naiveSelect(t, p, q)
		for _, s := range Strategies {
			got, stats, err := exec.Select(p, q, s)
			if err != nil {
				t.Fatalf("%v/%v: %v", enc, s, err)
			}
			if !resultsEqual(got, want) {
				t.Errorf("%v/%v: aggregation differs from naive", enc, s)
			}
			if stats.Groups != want.NumRows() {
				t.Errorf("%v/%v: Groups = %d, want %d", enc, s, stats.Groups, want.NumRows())
			}
		}
	}
}

// TestAggregateFunctionsEquivalence runs every aggregate function under
// every strategy and encoding against the naive reference.
func TestAggregateFunctionsEquivalence(t *testing.T) {
	db := openDB(t)
	p, err := db.Projection(tpch.LineitemProj)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 1024})
	fns := []operators.AggFunc{
		operators.AggSum, operators.AggCount, operators.AggAvg, operators.AggMin, operators.AggMax,
	}
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		linenum := tpch.LinenumColumn(enc)
		for _, fn := range fns {
			q := SelectQuery{
				Filters: []Filter{
					{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(0.4))},
					{Col: linenum, Pred: pred.LessThan(tpch.LinenumMax)},
				},
				GroupBy: tpch.ColShipdate,
				AggCol:  tpch.ColQuantity, // plain, unsorted values
				Agg:     fn,
			}
			want := naiveSelect(t, p, q)
			for _, s := range Strategies {
				got, _, err := exec.Select(p, q, s)
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", enc, fn, s, err)
				}
				if !resultsEqual(got, want) {
					t.Errorf("%v/%v/%v: differs from naive", enc, fn, s)
				}
				if got.Columns[1] != fn.String()+"(quantity)" {
					t.Errorf("%v: output column %q", fn, got.Columns[1])
				}
			}
		}
	}
}

// TestAggregateFunctionsOnEncodedValues aggregates the encoded column
// itself (so the compressed-direct value paths are exercised for every
// function).
func TestAggregateFunctionsOnEncodedValues(t *testing.T) {
	db := openDB(t)
	p, _ := db.Projection(tpch.LineitemProj)
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 1024})
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		linenum := tpch.LinenumColumn(enc)
		for _, fn := range []operators.AggFunc{operators.AggCount, operators.AggMin, operators.AggMax, operators.AggAvg} {
			q := SelectQuery{
				Filters: []Filter{{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(0.6))}},
				GroupBy: tpch.ColRetflag,
				AggCol:  linenum,
				Agg:     fn,
			}
			want := naiveSelect(t, p, q)
			for _, s := range Strategies {
				got, _, err := exec.Select(p, q, s)
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", enc, fn, s, err)
				}
				if !resultsEqual(got, want) {
					t.Errorf("%v/%v/%v: differs from naive", enc, fn, s)
				}
			}
		}
	}
}

func TestAggregationOnSortedKeyUsesFewGroups(t *testing.T) {
	db := openDB(t)
	p, _ := db.Projection(tpch.LineitemProj)
	exec := NewExecutor(db.Pool(), Options{})
	q := SelectQuery{
		Filters: []Filter{{Col: tpch.ColRetflag, Pred: pred.MatchAll}},
		GroupBy: tpch.ColRetflag,
		AggCol:  tpch.ColQuantity,
	}
	got, stats, err := exec.Select(p, q, LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 || stats.Groups != 3 {
		t.Errorf("returnflag groups = %d (stats %d), want 3", got.NumRows(), stats.Groups)
	}
	// Total over groups must equal the ungrouped total.
	var total int64
	for _, v := range decompressAll(t, p, tpch.ColQuantity) {
		total += v
	}
	var gotTotal int64
	for _, v := range oracle.Columns(got)[1] {
		gotTotal += v
	}
	if gotTotal != total {
		t.Errorf("sum over groups = %d, want %d", gotTotal, total)
	}
}

func TestBlockSkipping(t *testing.T) {
	db := openDB(t)
	p, _ := db.Projection(tpch.LineitemProj)
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 512})
	// Very selective first predicate: matching rows cluster in 3 spots
	// (shipdate is secondarily sorted under the 3 returnflag runs).
	q := lineitemQuery(tpch.ColLinenum, tpch.ShipdateForSelectivity(0.02), tpch.LinenumMax)
	for _, s := range []Strategy{EMPipelined, LMPipelined} {
		_, stats, err := exec.Select(p, q, s)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ChunksSkipped == 0 {
			t.Errorf("%v: expected chunk skipping under selective pipelined predicate", s)
		}
	}
	// Parallel strategies never skip.
	for _, s := range []Strategy{EMParallel, LMParallel} {
		_, stats, err := exec.Select(p, q, s)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ChunksSkipped != 0 {
			t.Errorf("%v: ChunksSkipped = %d, want 0", s, stats.ChunksSkipped)
		}
	}
}

// TestTinyBufferPool runs every strategy with a pool that can hold only one
// block: heavy eviction must not change results (failure-injection for the
// LM re-access path, which silently depends on pool hits).
func TestTinyBufferPool(t *testing.T) {
	db, err := storage.OpenDB(testData(t), encoding.BlockSize) // one block
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p, _ := db.Projection(tpch.LineitemProj)
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 512})
	q := lineitemQuery(tpch.ColLinenum, tpch.ShipdateForSelectivity(0.5), tpch.LinenumMax)
	var want *rows.Result
	for _, s := range Strategies {
		got, _, err := exec.Select(p, q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if want == nil {
			want = got
		} else if !resultsEqual(want, got) {
			t.Errorf("%v: result changed under eviction pressure", s)
		}
	}
	if db.Pool().Stats().Evictions == 0 {
		t.Error("expected evictions with a one-block pool")
	}
}

func TestQueryValidation(t *testing.T) {
	db := openDB(t)
	p, _ := db.Projection(tpch.LineitemProj)
	exec := NewExecutor(db.Pool(), Options{})
	for _, q := range []SelectQuery{
		{},                                   // no outputs, no aggregation
		{Output: []string{"no_such_column"}}, // unknown output
		{GroupBy: tpch.ColShipdate},          // aggregation without AggCol
		{Output: []string{tpch.ColShipdate}, Filters: []Filter{{Col: "nope", Pred: pred.MatchAll}}},
	} {
		if _, _, err := exec.Select(p, q, LMParallel); err == nil {
			t.Errorf("query %+v accepted", q)
		}
	}
}

func TestNoFilterQuery(t *testing.T) {
	db := openDB(t)
	p, _ := db.Projection(tpch.LineitemProj)
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 1024})
	q := SelectQuery{Output: []string{tpch.ColQuantity}}
	var first *rows.Result
	for _, s := range Strategies {
		got, stats, err := exec.Select(p, q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if int64(got.NumRows()) != p.TupleCount() {
			t.Errorf("%v: %d rows, want %d", s, got.NumRows(), p.TupleCount())
		}
		if stats.TuplesOut != p.TupleCount() {
			t.Errorf("%v: TuplesOut = %d", s, stats.TuplesOut)
		}
		if first == nil {
			first = got
		} else if !resultsEqual(first, got) {
			t.Errorf("%v: differs from first strategy", s)
		}
	}
}

func TestEmptyResultAllStrategies(t *testing.T) {
	db := openDB(t)
	p, _ := db.Projection(tpch.LineitemProj)
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 1024})
	q := lineitemQuery(tpch.ColLinenum, 0, tpch.LinenumMax) // shipdate < 0: empty
	for _, s := range Strategies {
		got, stats, err := exec.Select(p, q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got.NumRows() != 0 || stats.TuplesOut != 0 {
			t.Errorf("%v: expected empty result, got %d rows", s, got.NumRows())
		}
	}
}

// TestStrategyEquivalenceRandom is the central property test: on random
// queries over random filter combinations and encodings, all four
// strategies must return byte-identical results.
func TestStrategyEquivalenceRandom(t *testing.T) {
	db := openDB(t)
	p, _ := db.Projection(tpch.LineitemProj)
	rng := rand.New(rand.NewSource(31))
	allCols := []string{tpch.ColRetflag, tpch.ColShipdate, tpch.ColLinenum,
		tpch.ColLinenumRLE, tpch.ColLinenumBV, tpch.ColQuantity}
	maxOf := map[string]int64{
		tpch.ColRetflag: 2, tpch.ColShipdate: tpch.ShipdateDays,
		tpch.ColLinenum: tpch.LinenumMax, tpch.ColLinenumRLE: tpch.LinenumMax,
		tpch.ColLinenumBV: tpch.LinenumMax, tpch.ColQuantity: tpch.QuantityMax,
	}
	chunkSizes := []int64{512, 1024, 65536}
	for iter := 0; iter < 25; iter++ {
		exec := NewExecutor(db.Pool(), Options{ChunkSize: chunkSizes[iter%len(chunkSizes)]})
		nf := 1 + rng.Intn(3)
		q := SelectQuery{}
		perm := rng.Perm(len(allCols))
		for i := 0; i < nf; i++ {
			col := allCols[perm[i]]
			ops := []pred.Predicate{
				pred.LessThan(rng.Int63n(maxOf[col] + 2)),
				pred.AtLeast(rng.Int63n(maxOf[col] + 1)),
				pred.Equals(rng.Int63n(maxOf[col] + 1)),
				pred.InRange(rng.Int63n(maxOf[col]+1), rng.Int63n(maxOf[col]+2)),
			}
			q.Filters = append(q.Filters, Filter{Col: col, Pred: ops[rng.Intn(len(ops))]})
		}
		if rng.Intn(3) == 0 {
			q.GroupBy = allCols[perm[nf%len(perm)]]
			q.AggCol = allCols[perm[(nf+1)%len(perm)]]
		} else {
			q.Output = []string{allCols[perm[nf%len(perm)]], q.Filters[0].Col}
		}
		var first *rows.Result
		var firstStrat Strategy
		for _, s := range Strategies {
			got, _, err := exec.Select(p, q, s)
			if err != nil {
				t.Fatalf("iter %d %v (%+v): %v", iter, s, q, err)
			}
			if first == nil {
				first, firstStrat = got, s
			} else if !resultsEqual(first, got) {
				t.Fatalf("iter %d: %v and %v disagree on %+v (%d vs %d rows)",
					iter, firstStrat, s, q, first.NumRows(), got.NumRows())
			}
		}
	}
}

func TestJoinStrategiesEquivalence(t *testing.T) {
	db := openDB(t)
	orders, err := db.Projection(tpch.OrdersProj)
	if err != nil {
		t.Fatal(err)
	}
	customer, err := db.Projection(tpch.CustomerProj)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 512})
	nCust := customer.TupleCount()
	for _, sel := range []float64{0, 0.1, 0.6, 1.0} {
		q := JoinQuery{
			LeftKey:     tpch.ColCustkey,
			LeftPred:    pred.LessThan(tpch.CustkeyForSelectivity(sel, nCust)),
			LeftOutput:  []string{tpch.ColOrderShipdate},
			RightKey:    tpch.ColCustkey,
			RightOutput: []string{tpch.ColNationcode},
		}
		want := naiveJoin(t, orders, customer, q)
		for _, rs := range []operators.RightStrategy{
			operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
		} {
			got, stats, err := exec.Join(orders, customer, q, rs)
			if err != nil {
				t.Fatalf("%v sel=%v: %v", rs, sel, err)
			}
			if !resultsEqual(got, want) {
				t.Errorf("%v sel=%v: join result differs from naive (%d vs %d rows)",
					rs, sel, got.NumRows(), want.NumRows())
			}
			if stats.TuplesOut != int64(want.NumRows()) {
				t.Errorf("%v: TuplesOut = %d, want %d", rs, stats.TuplesOut, want.NumRows())
			}
		}
	}
}

func naiveJoin(t *testing.T, left, right *storage.Projection, q JoinQuery) *rows.Result {
	t.Helper()
	lk := decompressAll(t, left, q.LeftKey)
	rk := decompressAll(t, right, q.RightKey)
	lOut := make([][]int64, len(q.LeftOutput))
	for i, n := range q.LeftOutput {
		lOut[i] = decompressAll(t, left, n)
	}
	rOut := make([][]int64, len(q.RightOutput))
	for i, n := range q.RightOutput {
		rOut[i] = decompressAll(t, right, n)
	}
	rIndex := map[int64][]int{}
	for i, k := range rk {
		rIndex[k] = append(rIndex[k], i)
	}
	cols := make([][]int64, len(q.LeftOutput)+len(q.RightOutput))
	for i, k := range lk {
		if !q.LeftPred.Match(k) {
			continue
		}
		for _, ri := range rIndex[k] {
			for c := range lOut {
				cols[c] = append(cols[c], lOut[c][i])
			}
			for c := range rOut {
				cols[len(lOut)+c] = append(cols[len(lOut)+c], rOut[c][ri])
			}
		}
	}
	return resultOf(append(append([]string{}, q.LeftOutput...), q.RightOutput...), cols)
}

func TestJoinStats(t *testing.T) {
	db := openDB(t)
	orders, _ := db.Projection(tpch.OrdersProj)
	customer, _ := db.Projection(tpch.CustomerProj)
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 512})
	q := JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    pred.MatchAll,
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
	}
	_, stats, err := exec.Join(orders, customer, q, operators.RightSingleColumn)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Join.DeferredFetches == 0 {
		t.Error("single-column strategy should report deferred fetches")
	}
	_, stats, err = exec.Join(orders, customer, q, operators.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Join.RightBuildTuples != customer.TupleCount() {
		t.Errorf("RightBuildTuples = %d, want %d", stats.Join.RightBuildTuples, customer.TupleCount())
	}
	if stats.Join.DeferredFetches != 0 {
		t.Error("materialized strategy should not defer fetches")
	}
}

func TestParseStrategy(t *testing.T) {
	for s, want := range map[string]Strategy{
		"em-pipelined": EMPipelined, "em-parallel": EMParallel,
		"lm-pipelined": LMPipelined, "lm-parallel": LMParallel,
	} {
		got, err := ParseStrategy(s)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		EMPipelined: "EM-pipelined", EMParallel: "EM-parallel",
		LMPipelined: "LM-pipelined", LMParallel: "LM-parallel",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestOutputChecksumStableAcrossStrategies(t *testing.T) {
	db := openDB(t)
	p, _ := db.Projection(tpch.LineitemProj)
	exec := NewExecutor(db.Pool(), Options{ChunkSize: 1024})
	q := lineitemQuery(tpch.ColLinenumRLE, tpch.ShipdateForSelectivity(0.7), 5)
	var sum int64
	for i, s := range Strategies {
		_, stats, err := exec.Select(p, q, s)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			sum = stats.OutputChecksum
			if sum == 0 {
				t.Fatal("checksum unexpectedly zero; pick a different query")
			}
		} else if stats.OutputChecksum != sum {
			t.Errorf("%v checksum %d != %d", s, stats.OutputChecksum, sum)
		}
	}
}
