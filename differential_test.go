// Cross-strategy differential suite: randomized selection/aggregation
// queries over generated TPC-H-shaped data must return, under every
// materialization strategy × parallelism level, exactly what internal/oracle's
// row-at-a-time reference returns — row order included. This is the paper's
// core invariant — materialization strategy and worker count are pure
// execution choices — locked in as a property test against one reference.
package matstore_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"matstore"
	"matstore/internal/core"
	"matstore/internal/oracle"
	"matstore/internal/pred"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// diffDomains describes the generated lineitem columns a random query may
// touch: name, min value, max value (inclusive). linenum_bv is excluded
// from filters (the C-Store executor does not position-filter bit-vector
// data in pipelined LM plans) but allowed as an output/aggregate column.
var diffFilterCols = []struct {
	name     string
	min, max int64
}{
	{tpch.ColShipdate, 0, tpch.ShipdateDays - 1},
	{tpch.ColLinenum, 1, tpch.LinenumMax},
	{tpch.ColLinenumRLE, 1, tpch.LinenumMax},
	{tpch.ColQuantity, 1, tpch.QuantityMax},
	{tpch.ColRetflag, 0, 2},
}

var diffOutputCols = []string{
	tpch.ColShipdate, tpch.ColLinenum, tpch.ColLinenumRLE,
	tpch.ColLinenumBV, tpch.ColQuantity, tpch.ColRetflag,
}

// randPredicate draws a predicate whose accepted fraction of [min, max]
// spans the whole selectivity range, including empty and match-all.
func randPredicate(rng *rand.Rand, min, max int64) matstore.Predicate {
	v := func() int64 { return min + rng.Int63n(max-min+1) }
	switch rng.Intn(8) {
	case 0:
		return matstore.MatchAll
	case 1:
		return matstore.LessThan(v())
	case 2:
		return matstore.AtMost(v())
	case 3:
		return matstore.Equals(v())
	case 4:
		return matstore.NotEquals(v())
	case 5:
		return matstore.AtLeast(v())
	case 6:
		return matstore.GreaterThan(v())
	default:
		a, b := v(), v()
		if b < a {
			a, b = b, a
		}
		return matstore.InRange(a, b+1)
	}
}

// randQuery draws a random selection or aggregation over lineitem.
func randQuery(rng *rand.Rand) matstore.Query {
	var q matstore.Query
	// 0–3 filters over distinct columns, in random order.
	perm := rng.Perm(len(diffFilterCols))
	for _, ci := range perm[:rng.Intn(4)] {
		c := diffFilterCols[ci]
		q.Filters = append(q.Filters, matstore.Filter{
			Col: c.name, Pred: randPredicate(rng, c.min, c.max),
		})
	}
	if rng.Intn(3) == 0 {
		// Aggregation: random group key, aggregate column and function.
		q.GroupBy = []string{tpch.ColRetflag, tpch.ColLinenum, tpch.ColShipdate}[rng.Intn(3)]
		q.AggCol = diffOutputCols[rng.Intn(len(diffOutputCols))]
		q.Agg = []matstore.AggFunc{
			matstore.Sum, matstore.Count, matstore.Avg, matstore.Min, matstore.Max,
		}[rng.Intn(5)]
		return q
	}
	// Selection: 1–3 random output columns (repeats allowed — the merge
	// must keep arity straight).
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		q.Output = append(q.Output, diffOutputCols[rng.Intn(len(diffOutputCols))])
	}
	return q
}

// sortedRows canonicalizes a result as lexicographically sorted row tuples.
func sortedRows(res *matstore.Result) [][]int64 {
	out := make([][]int64, res.NumRows())
	for i := range out {
		out[i] = res.Row(i)
	}
	sort.Slice(out, func(i, j int) bool {
		for c := range out[i] {
			if out[i][c] != out[j][c] {
				return out[i][c] < out[j][c]
			}
		}
		return false
	})
	return out
}

// diffDB opens the shared test dataset with a small chunk size so 12k rows
// split into many chunks and parallel runs use many morsels.
func diffDB(t *testing.T) *matstore.DB {
	t.Helper()
	return open(t, matstore.Options{Exec: core.Options{ChunkSize: 1024}})
}

// storedColumn resolves one stored column for the oracle.
func storedColumn(t *testing.T, db *matstore.DB, proj, name string) *storage.Column {
	t.Helper()
	p, err := db.Storage().Projection(proj)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Column(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// oracleResult runs q over lineitem through the row-at-a-time reference and
// returns the result columns every strategy must reproduce: the output
// columns in position order, or the group keys ascending beside their
// aggregates.
func oracleResult(t *testing.T, db *matstore.DB, q matstore.Query) [][]int64 {
	t.Helper()
	col := func(name string) *storage.Column { return storedColumn(t, db, tpch.LineitemProj, name) }
	filters := make([]oracle.Filter, len(q.Filters))
	for i, f := range q.Filters {
		filters[i] = oracle.Filter{Col: col(f.Col), Pred: f.Pred}
	}
	if q.Aggregating() {
		keys, aggs, err := oracle.Aggregate(filters, col(q.GroupBy), col(q.AggCol), q.Agg.String())
		if err != nil {
			t.Fatal(err)
		}
		return [][]int64{keys, aggs}
	}
	out := make([]*storage.Column, len(q.Output))
	for i, name := range q.Output {
		out[i] = col(name)
	}
	want, err := oracle.Select(filters, out)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkAgainstOracle runs q under all four strategies × parallelism {1, 4}
// and requires every result byte-identical to the oracle's — the rows q.Limit
// keeps, and the count and per-column sums over all of them — which also makes
// the strategies agree with each other and parallel row order equal serial
// row order.
func checkAgainstOracle(t *testing.T, db *matstore.DB, q matstore.Query) {
	t.Helper()
	want := oracleResult(t, db, q)
	for _, s := range matstore.Strategies {
		for _, par := range []int{1, 4} {
			q.Parallelism = par
			res, stats, err := db.Select(tpch.LineitemProj, q, s)
			if err != nil {
				t.Fatalf("%v/par=%d: %v (query %+v)", s, par, err, q)
			}
			if err := oracle.Capped(res, want, q.Limit); err != nil {
				t.Errorf("%v/par=%d: %v on query %+v", s, par, err, q)
			}
			if stats.TuplesOut != res.Total || stats.OutputChecksum != res.Checksum() {
				t.Errorf("%v/par=%d: stats report %d rows summing to %d, the result %d and %d",
					s, par, stats.TuplesOut, stats.OutputChecksum, res.Total, res.Checksum())
			}
		}
	}
}

// TestDifferentialStrategiesAndParallelism is the cross-strategy
// differential suite: every random query must produce the oracle's result,
// row order included, under all four strategies × parallelism ∈ {1, 4}.
func TestDifferentialStrategiesAndParallelism(t *testing.T) {
	db := diffDB(t)
	rng := rand.New(rand.NewSource(20260726))
	const numQueries = 40
	for qi := 0; qi < numQueries; qi++ {
		q := randQuery(rng)
		t.Run(fmt.Sprintf("query%02d", qi), func(t *testing.T) { checkAgainstOracle(t, db, q) })
	}
}

// TestDifferentialParallelismRepeatStable runs one parallel query 10 times:
// output must be byte-identical every run (deterministic merge order).
func TestDifferentialParallelismRepeatStable(t *testing.T) {
	db := diffDB(t)
	q := matstore.Query{
		Output: []string{tpch.ColShipdate, tpch.ColLinenum, tpch.ColQuantity},
		Filters: []matstore.Filter{
			{Col: tpch.ColShipdate, Pred: matstore.LessThan(1200)},
			{Col: tpch.ColQuantity, Pred: matstore.LessThan(40)},
		},
		Parallelism: 4,
	}
	for _, s := range matstore.Strategies {
		var first *matstore.Result
		for run := 0; run < 10; run++ {
			res, _, err := db.Select(tpch.LineitemProj, q, s)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(oracle.Columns(res), oracle.Columns(first)) || !reflect.DeepEqual(res.Columns, first.Columns) {
				t.Fatalf("%v: run %d output differs", s, run)
			}
		}
	}
}

// TestDifferentialJoinParallelism checks the three join inner-table
// strategies × parallelism levels agree.
func TestDifferentialJoinParallelism(t *testing.T) {
	db := diffDB(t)
	q := matstore.JoinQuery{
		LeftKey:     "custkey",
		LeftPred:    matstore.LessThan(200),
		LeftOutput:  []string{"shipdate"},
		RightKey:    "custkey",
		RightOutput: []string{"nationcode"},
	}
	var ref [][]int64
	for _, rs := range []matstore.RightStrategy{
		matstore.RightMaterialized, matstore.RightMultiColumn, matstore.RightSingleColumn,
	} {
		for _, par := range []int{1, 4} {
			q.Parallelism = par
			res, _, err := db.Join("orders", "customer", q, rs)
			if err != nil {
				t.Fatalf("%v/par=%d: %v", rs, par, err)
			}
			rowsSorted := sortedRows(res)
			if ref == nil {
				ref = rowsSorted
				if len(ref) == 0 {
					t.Fatal("join reference result empty")
				}
			} else if !reflect.DeepEqual(rowsSorted, ref) {
				t.Errorf("%v/par=%d join result disagrees", rs, par)
			}
		}
	}
}

// TestDifferentialOpSelectivitySweep is the end-to-end acceptance grid for
// the compiled scan/gather kernels: every pred.Op at selectivities spanning
// {0, ~0.01, ~0.5, ~0.99, 1}, under all four strategies × parallelism
// {1, 4}. EM-parallel evaluates every filter over decompressed vectors into
// selection masks while the other strategies filter in each encoding's native
// format and gather, so agreement with the oracle here checks both through
// whole query plans (filter → position set → gather → merge), not just
// per-operator.
func TestDifferentialOpSelectivitySweep(t *testing.T) {
	db := diffDB(t)
	sels := []float64{0, 0.01, 0.5, 0.99, 1}
	for _, tc := range []struct {
		name  string
		preds func(sel float64) matstore.Predicate
	}{
		{"all", func(float64) matstore.Predicate { return matstore.MatchAll }},
		{"none", func(float64) matstore.Predicate { return matstore.Predicate{Op: pred.None} }},
		{"lt", func(s float64) matstore.Predicate { return matstore.LessThan(tpch.ShipdateForSelectivity(s)) }},
		{"le", func(s float64) matstore.Predicate { return matstore.AtMost(tpch.ShipdateForSelectivity(s) - 1) }},
		{"eq", func(s float64) matstore.Predicate { return matstore.Equals(tpch.ShipdateForSelectivity(s)) }},
		{"ne", func(s float64) matstore.Predicate { return matstore.NotEquals(tpch.ShipdateForSelectivity(s)) }},
		{"ge", func(s float64) matstore.Predicate { return matstore.AtLeast(tpch.ShipdateForSelectivity(1 - s)) }},
		{"gt", func(s float64) matstore.Predicate { return matstore.GreaterThan(tpch.ShipdateForSelectivity(1-s) - 1) }},
		{"between", func(s float64) matstore.Predicate {
			lo := tpch.ShipdateForSelectivity((1 - s) / 2)
			hi := tpch.ShipdateForSelectivity((1 + s) / 2)
			return matstore.InRange(lo, hi)
		}},
	} {
		for _, sel := range sels {
			q := matstore.Query{
				// Outputs cover all three encodings, so materialization runs
				// the plain, RLE and bit-vector gather kernels.
				Output: []string{tpch.ColShipdate, tpch.ColLinenumRLE, tpch.ColLinenumBV, tpch.ColQuantity},
				Filters: []matstore.Filter{
					{Col: tpch.ColShipdate, Pred: tc.preds(sel)},
					{Col: tpch.ColQuantity, Pred: matstore.LessThan(45)},
				},
			}
			t.Run(fmt.Sprintf("%s/sel=%v", tc.name, sel), func(t *testing.T) { checkAgainstOracle(t, db, q) })
		}
	}
}

// TestDifferentialJoinSelectivitySweep sweeps the outer predicate across the
// selectivity grid for all three inner-table strategies: at every point the
// single-column strategy's batched deferred fetch (dense and sparse shapes,
// including the empty-pending case) must agree with the materialized and
// multi-column strategies.
func TestDifferentialJoinSelectivitySweep(t *testing.T) {
	db := diffDB(t)
	for _, sel := range []float64{0, 0.01, 0.5, 0.99, 1} {
		q := matstore.JoinQuery{
			LeftKey:     "custkey",
			LeftPred:    matstore.LessThan(tpch.CustkeyForSelectivity(sel, 1500)),
			LeftOutput:  []string{"shipdate"},
			RightKey:    "custkey",
			RightOutput: []string{"nationcode"},
		}
		var ref [][]int64
		for _, rs := range []matstore.RightStrategy{
			matstore.RightMaterialized, matstore.RightMultiColumn, matstore.RightSingleColumn,
		} {
			for _, par := range []int{1, 4} {
				q.Parallelism = par
				res, _, err := db.Join("orders", "customer", q, rs)
				if err != nil {
					t.Fatalf("sel=%v %v/par=%d: %v", sel, rs, par, err)
				}
				rowsSorted := sortedRows(res)
				if ref == nil {
					ref = rowsSorted
				} else if !reflect.DeepEqual(rowsSorted, ref) {
					t.Errorf("sel=%v %v/par=%d join result disagrees", sel, rs, par)
				}
			}
		}
	}
}

// TestDifferentialJoinRadixBuild pins the radix-partitioned parallel hash
// build byte-identical (row order included) to the serial definition of the
// join — the nested-loop oracle over the decompressed columns — sweeping the
// partition count (1, 2, 8, 64 — and 0, the worker-derived default) across
// all three inner-table strategies, worker counts and outer selectivities —
// and, at every point, under every row cap of oracle.Limits: a capped join
// keeps the oracle's leading rows and still counts and sums all of them.
func TestDifferentialJoinRadixBuild(t *testing.T) {
	partitionDBs := map[int]*matstore.DB{}
	for _, p := range []int{0, 1, 2, 8, 64} {
		partitionDBs[p] = open(t, matstore.Options{Exec: core.Options{ChunkSize: 1024, JoinPartitions: p}})
	}
	for _, sel := range []float64{0, 0.1, 0.9} {
		q := matstore.JoinQuery{
			LeftKey:     "custkey",
			LeftPred:    matstore.LessThan(tpch.CustkeyForSelectivity(sel, 1500)),
			LeftOutput:  []string{"shipdate"},
			RightKey:    "custkey",
			RightOutput: []string{"nationcode"},
			Parallelism: 1,
		}
		anyDB := partitionDBs[0]
		ref, _, err := oracle.NestedLoopJoin(
			storedColumn(t, anyDB, "orders", "custkey"), q.LeftPred, []*storage.Column{storedColumn(t, anyDB, "orders", "shipdate")},
			storedColumn(t, anyDB, "customer", "custkey"), []*storage.Column{storedColumn(t, anyDB, "customer", "nationcode")})
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range []matstore.RightStrategy{
			matstore.RightMaterialized, matstore.RightMultiColumn, matstore.RightSingleColumn,
		} {
			for p, db := range partitionDBs {
				for _, par := range []int{1, 4} {
					q.Parallelism = par
					for _, q.Limit = range oracle.Limits(len(ref[0])) {
						res, stats, err := db.Join("orders", "customer", q, rs)
						if err != nil {
							t.Fatalf("sel=%v %v/p=%d/par=%d/limit=%d: %v", sel, rs, p, par, q.Limit, err)
						}
						if err := oracle.Capped(res, ref, q.Limit); err != nil {
							t.Errorf("sel=%v %v/p=%d/par=%d/limit=%d: radix result not the oracle's: %v",
								sel, rs, p, par, q.Limit, err)
						}
						if stats.TuplesOut != res.Total || stats.OutputChecksum != res.Checksum() {
							t.Errorf("sel=%v %v/p=%d/par=%d/limit=%d: stats report %d rows summing to %d, the result %d and %d",
								sel, rs, p, par, q.Limit, stats.TuplesOut, stats.OutputChecksum, res.Total, res.Checksum())
						}
						if p > 0 && stats.Join.Partitions != p {
							t.Errorf("sel=%v %v/p=%d: reported partitions = %d", sel, rs, p, stats.Join.Partitions)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialFusedScans is the acceptance grid for multi-predicate
// fusion: queries whose consecutive filters hit the same column — the shape
// the planner fuses into one k-predicate scan pass — must return the oracle's
// result (one predicate test per row per filter, nothing fused), across
// conjunction shapes × filter encodings × selectivities × all four strategies
// × parallelism {1, 4}.
func TestDifferentialFusedScans(t *testing.T) {
	db := diffDB(t)
	conjs := []struct {
		name  string
		preds func(lo, hi int64) []matstore.Predicate
	}{
		{"ge-lt", func(lo, hi int64) []matstore.Predicate {
			return []matstore.Predicate{matstore.AtLeast(lo), matstore.LessThan(hi)}
		}},
		{"gt-le", func(lo, hi int64) []matstore.Predicate {
			return []matstore.Predicate{matstore.GreaterThan(lo - 1), matstore.AtMost(hi - 1)}
		}},
		{"ge-lt-ne", func(lo, hi int64) []matstore.Predicate {
			return []matstore.Predicate{matstore.AtLeast(lo), matstore.LessThan(hi), matstore.NotEquals((lo + hi) / 2)}
		}},
		// An interval anchored near the column's low end plus Ne residue: over
		// the sorted shipdate column the survivors are one long position run
		// with a hole in it.
		{"quarter-lt-ne", func(_, hi int64) []matstore.Predicate {
			return []matstore.Predicate{matstore.AtLeast(hi / 4), matstore.LessThan(hi), matstore.NotEquals(hi / 2)}
		}},
		{"between-ne", func(lo, hi int64) []matstore.Predicate {
			return []matstore.Predicate{matstore.InRange(lo, hi), matstore.NotEquals(lo)}
		}},
		{"contradiction", func(lo, hi int64) []matstore.Predicate {
			return []matstore.Predicate{matstore.AtLeast(hi), matstore.LessThan(lo)}
		}},
		{"all-and-lt", func(lo, hi int64) []matstore.Predicate {
			return []matstore.Predicate{matstore.MatchAll, matstore.LessThan(hi)}
		}},
	}
	filterCols := []struct {
		name     string
		min, max int64
	}{
		{tpch.ColShipdate, 0, tpch.ShipdateDays - 1}, // plain, sorted
		{tpch.ColLinenumRLE, 1, tpch.LinenumMax},     // RLE
		{tpch.ColQuantity, 1, tpch.QuantityMax},      // plain, random
	}
	sels := []float64{0, 0.01, 0.5, 0.99, 1}
	for _, col := range filterCols {
		for _, conj := range conjs {
			for _, sel := range sels {
				span := float64(col.max-col.min) * sel
				lo := col.min + int64((float64(col.max-col.min)-span)/2)
				hi := lo + int64(span) + 1
				q := matstore.Query{
					Output: []string{col.name, tpch.ColShipdate, tpch.ColLinenumBV},
				}
				for _, p := range conj.preds(lo, hi) {
					q.Filters = append(q.Filters, matstore.Filter{Col: col.name, Pred: p})
				}
				// A trailing filter on another column keeps the multi-group
				// (fused-then-pipelined) paths honest.
				if col.name != tpch.ColShipdate {
					q.Filters = append(q.Filters, matstore.Filter{
						Col: tpch.ColShipdate, Pred: matstore.LessThan(tpch.ShipdateForSelectivity(0.8)),
					})
				}
				t.Run(fmt.Sprintf("%s/%s/sel=%v", col.name, conj.name, sel), func(t *testing.T) { checkAgainstOracle(t, db, q) })
			}
		}
	}
}

// randomOracleSeeds are the generator seeds TestRandomQueriesAgainstOracle
// replays. 77 is the seed the fused-vs-unfused random test it replaced ran
// on; a seed that ever fails is added here and stays.
var randomOracleSeeds = []int64{77, 78, 20260926}

// TestRandomQueriesAgainstOracle is the seeded random differential: queries
// that repeat filter columns — adjacent (fused into one scan) and split
// across groups by another column's filter — over every filterable encoding
// and every pred.Op, each run as a selection and as an aggregation over the
// same WHERE clause, under all four strategies × parallelism {1, 4}, against
// the row-at-a-time oracle.
func TestRandomQueriesAgainstOracle(t *testing.T) {
	db := diffDB(t)
	for _, seed := range randomOracleSeeds {
		rng := rand.New(rand.NewSource(seed))
		// The aggregation twin and the row cap draw from their own streams, so
		// the WHERE clauses and outputs a seed generates do not depend on them.
		aggRng := rand.New(rand.NewSource(seed + 1<<32))
		capRng := rand.New(rand.NewSource(seed + 2<<32))
		for iter := 0; iter < 20; iter++ {
			c := diffFilterCols[rng.Intn(len(diffFilterCols))]
			var q matstore.Query
			for i, n := 0, 2+rng.Intn(2); i < n; i++ {
				q.Filters = append(q.Filters, matstore.Filter{
					Col: c.name, Pred: randPredicate(rng, c.min, c.max),
				})
			}
			if rng.Intn(2) == 0 {
				// Interleave a different column so same-column filters are both
				// adjacent (fusable) and split across groups.
				mid := diffFilterCols[rng.Intn(len(diffFilterCols))]
				q.Filters[1], q.Filters[len(q.Filters)-1] = q.Filters[len(q.Filters)-1], q.Filters[1]
				q.Filters = append(q.Filters, matstore.Filter{
					Col: mid.name, Pred: randPredicate(rng, mid.min, mid.max),
				})
			}
			q.Output = []string{c.name, diffOutputCols[rng.Intn(len(diffOutputCols))]}
			// The test this replaced drew a parallelism per (strategy, database)
			// from this stream — eight draws a query. They are still drawn, so
			// that seed 77 generates the twenty queries it always has.
			for i := 0; i < 2*len(matstore.Strategies); i++ {
				rng.Intn(2)
			}
			agg := matstore.Query{
				Filters: q.Filters,
				GroupBy: []string{tpch.ColRetflag, tpch.ColLinenum, tpch.ColLinenumRLE, tpch.ColShipdate}[aggRng.Intn(4)],
				AggCol:  diffOutputCols[aggRng.Intn(len(diffOutputCols))],
				Agg: []matstore.AggFunc{
					matstore.Sum, matstore.Count, matstore.Avg, matstore.Min, matstore.Max,
				}[aggRng.Intn(5)],
			}
			draw := capRng.Intn(len(oracle.Limits(0)))
			t.Run(fmt.Sprintf("seed%d/query%02d", seed, iter), func(t *testing.T) {
				for _, q := range []matstore.Query{q, agg} {
					q.Limit = oracle.Limits(len(oracleResult(t, db, q)[0]))[draw]
					checkAgainstOracle(t, db, q)
				}
			})
		}
	}
}
