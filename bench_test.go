// Benchmarks regenerating every table and figure of the paper's evaluation:
//
//	BenchmarkTable2Constants — the Table 2 model-constant microbenchmarks
//	BenchmarkFig10           — model-vs-measured selection (RLE), LM and EM
//	BenchmarkFig11           — selection × {plain, RLE, bit-vector} × strategy
//	BenchmarkFig12           — aggregation × {plain, RLE, bit-vector} × strategy
//	BenchmarkFig13           — join × inner-table strategy
//
// Figure benchmarks report the measured time per query; Fig10 additionally
// reports the analytical model's prediction as the custom metric
// "model_ms/op" so shape agreement is visible in benchmark output. The
// full sweeps behind EXPERIMENTS.md come from cmd/csbench, which prints
// whole curves.
package matstore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"matstore"
	"matstore/internal/bench"
	"matstore/internal/core"
	"matstore/internal/encoding"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

const benchScale = 0.01 // 60k lineitem rows per query: each op is a full query

var (
	benchOnce sync.Once
	benchDir  string
	benchErr  error
	benchE    *bench.Env
)

func benchEnv(b *testing.B) *bench.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "matstore-bench")
		if benchErr != nil {
			return
		}
		benchE, benchErr = bench.Setup(filepath.Join(benchDir, "data"), benchScale, 11)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchE
}

// benchCleanup is called from TestMain in matstore_test.go.
func benchCleanup() {
	if benchE != nil {
		benchE.Close()
	}
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
}

func benchDB(b *testing.B) *matstore.DB {
	b.Helper()
	e := benchEnv(b)
	db, err := matstore.Open(e.Dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func selQuery(enc encoding.Kind, sel float64, agg bool) matstore.Query {
	linenum := tpch.LinenumColumn(enc)
	q := matstore.Query{
		Filters: []matstore.Filter{
			{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(sel))},
			{Col: linenum, Pred: pred.LessThan(tpch.LinenumMax)},
		},
	}
	if agg {
		q.GroupBy = tpch.ColShipdate
		q.AggCol = linenum
	} else {
		q.Output = []string{tpch.ColShipdate, linenum}
	}
	return q
}

func runSelect(b *testing.B, db *matstore.DB, q matstore.Query, s matstore.Strategy) {
	b.Helper()
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		_, stats, err := db.Select(tpch.LineitemProj, q, s)
		if err != nil {
			b.Fatal(err)
		}
		sink += stats.OutputChecksum
	}
	_ = sink
}

// BenchmarkTable2Constants regenerates Table 2: the per-call costs of the
// four CPU constants of the analytical model.
func BenchmarkTable2Constants(b *testing.B) {
	b.Run("FC/function-call", func(b *testing.B) {
		b.ReportAllocs()
		var acc int64
		f := func(x int64) int64 { return x + 1 }
		for i := 0; i < b.N; i++ {
			acc = f(acc)
		}
		_ = acc
	})
	b.Run("TICCOL/column-iterator", func(b *testing.B) {
		b.ReportAllocs()
		vals := make([]int64, 1<<16)
		var acc int64
		for i := 0; i < b.N; i++ {
			acc += vals[i&(1<<16-1)]
		}
		_ = acc
	})
	b.Run("TICTUP/tuple-iterator", func(b *testing.B) {
		b.ReportAllocs()
		x := make([]int64, 1<<16)
		y := make([]int64, 1<<16)
		type tup struct{ a, b int64 }
		var acc int64
		for i := 0; i < b.N; i++ {
			j := i & (1<<16 - 1)
			t := tup{x[j], y[j]}
			acc += t.a + t.b
		}
		_ = acc
	})
	b.Run("BIC/block-iterator", func(b *testing.B) {
		e := benchEnv(b)
		db, err := matstore.Open(e.Dir)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		// One full-column scan per op, cost dominated by per-block dispatch.
		q := matstore.Query{Output: []string{tpch.ColRetflag}}
		runSelectRaw(b, db, q)
	})
}

func runSelectRaw(b *testing.B, db *matstore.DB, q matstore.Query) {
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		_, stats, err := db.Select(tpch.LineitemProj, q, matstore.LMParallel)
		if err != nil {
			b.Fatal(err)
		}
		sink += stats.TuplesOut
	}
	_ = sink
}

// BenchmarkFig10 regenerates Figure 10: measured runtime per strategy on
// the RLE selection query, with the analytical prediction reported as
// model_ms/op.
func BenchmarkFig10(b *testing.B) {
	e := benchEnv(b)
	db := benchDB(b)
	for _, sel := range []float64{0.1, 0.5, 0.9} {
		q := selQuery(encoding.RLE, sel, false)
		for _, s := range matstore.Strategies {
			b.Run(fmt.Sprintf("%s/sel=%.1f", s, sel), func(b *testing.B) {
				runSelect(b, db, q, s)
				predicted, err := e.ModelMS(q, s)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(predicted, "model_ms/op")
			})
		}
	}
}

// BenchmarkFig11 regenerates Figure 11: the selection query across LINENUM
// encodings and strategies.
func BenchmarkFig11(b *testing.B) {
	db := benchDB(b)
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		strategies := matstore.Strategies
		if enc == encoding.BitVector {
			strategies = []matstore.Strategy{matstore.EMPipelined, matstore.EMParallel, matstore.LMParallel}
		}
		for _, sel := range []float64{0.1, 0.9} {
			q := selQuery(enc, sel, false)
			for _, s := range strategies {
				b.Run(fmt.Sprintf("%s/%s/sel=%.1f", enc, s, sel), func(b *testing.B) {
					runSelect(b, db, q, s)
				})
			}
		}
	}
}

// BenchmarkFig12 regenerates Figure 12: the aggregation query across
// LINENUM encodings and strategies.
func BenchmarkFig12(b *testing.B) {
	db := benchDB(b)
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		strategies := matstore.Strategies
		if enc == encoding.BitVector {
			strategies = []matstore.Strategy{matstore.EMPipelined, matstore.EMParallel, matstore.LMParallel}
		}
		for _, sel := range []float64{0.1, 0.9} {
			q := selQuery(enc, sel, true)
			for _, s := range strategies {
				b.Run(fmt.Sprintf("%s/%s/sel=%.1f", enc, s, sel), func(b *testing.B) {
					runSelect(b, db, q, s)
				})
			}
		}
	}
}

// BenchmarkFig13 regenerates Figure 13: the orders ⋈ customer join under
// the three inner-table materialization strategies.
func BenchmarkFig13(b *testing.B) {
	e := benchEnv(b)
	db := benchDB(b)
	nCust := tpch.Config{Scale: benchScale}.CustomerRows()
	_ = e
	for _, rs := range []matstore.RightStrategy{
		matstore.RightMaterialized, matstore.RightMultiColumn, matstore.RightSingleColumn,
	} {
		for _, sel := range []float64{0.1, 0.9} {
			q := matstore.JoinQuery{
				LeftKey:     tpch.ColCustkey,
				LeftPred:    pred.LessThan(tpch.CustkeyForSelectivity(sel, nCust)),
				LeftOutput:  []string{tpch.ColOrderShipdate},
				RightKey:    tpch.ColCustkey,
				RightOutput: []string{tpch.ColNationcode},
			}
			b.Run(fmt.Sprintf("%s/sel=%.1f", rs, sel), func(b *testing.B) {
				b.ReportAllocs()
				var sink int64
				for i := 0; i < b.N; i++ {
					_, stats, err := db.Join(tpch.OrdersProj, tpch.CustomerProj, q, rs)
					if err != nil {
						b.Fatal(err)
					}
					sink += stats.TuplesOut
				}
				_ = sink
			})
		}
	}
}

// BenchmarkParallelSelection measures the morsel-parallel speedup on a
// low-selectivity multi-predicate selection: the same query at worker
// counts 1, 2 and 4 (compare ns/op across sub-benchmarks; on a multi-core
// host parallelism 4 should run ≥ 1.8× faster than parallelism 1). A small
// chunk size splits the dataset into enough chunks that every worker count
// gets multiple morsels.
func BenchmarkParallelSelection(b *testing.B) {
	e := benchEnv(b)
	db, err := matstore.Open(e.Dir, matstore.Options{Exec: core.Options{ChunkSize: 4096}})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	q := matstore.Query{
		Output: []string{tpch.ColShipdate, tpch.ColLinenum, tpch.ColQuantity},
		Filters: []matstore.Filter{
			{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(0.1))},
			{Col: tpch.ColQuantity, Pred: pred.LessThan(40)},
			{Col: tpch.ColLinenum, Pred: pred.LessThan(7)},
		},
	}
	for _, s := range []matstore.Strategy{matstore.LMParallel, matstore.EMParallel} {
		for _, par := range []int{1, 2, 4} {
			q.Parallelism = par
			b.Run(fmt.Sprintf("%v/parallelism=%d", s, par), func(b *testing.B) {
				runSelect(b, db, q, s)
			})
		}
	}
}

// BenchmarkParallelAggregation measures the morsel-parallel speedup of the
// partial-aggregate merge path.
func BenchmarkParallelAggregation(b *testing.B) {
	e := benchEnv(b)
	db, err := matstore.Open(e.Dir, matstore.Options{Exec: core.Options{ChunkSize: 4096}})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	q := matstore.Query{
		Filters: []matstore.Filter{
			{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(0.5))},
		},
		GroupBy: tpch.ColShipdate,
		AggCol:  tpch.ColQuantity,
	}
	for _, par := range []int{1, 4} {
		q.Parallelism = par
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			runSelect(b, db, q, matstore.LMParallel)
		})
	}
}

// BenchmarkJoinBuildSide isolates per-strategy join cost at mid selectivity
// including the right-table build.
func BenchmarkJoinBuildSide(b *testing.B) {
	e := benchEnv(b)
	for _, rs := range []operators.RightStrategy{
		operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
	} {
		b.Run(rs.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats, err := e.JoinStatsAt(0.5, rs)
				if err != nil {
					b.Fatal(err)
				}
				if stats.TuplesOut == 0 {
					b.Fatal("empty join")
				}
			}
		})
	}
}

// BenchmarkFusedMultiPredicate measures a whole query whose two predicates
// fuse: a selective range conjunction over one unsorted column (quantity),
// which the planner turns into one scan pass. The query is scan-dominated
// (few survivors, cheap materialization), and LM-parallel makes the scan's
// share purest.
func BenchmarkFusedMultiPredicate(b *testing.B) {
	q := matstore.Query{
		Output: []string{tpch.ColShipdate, tpch.ColQuantity},
		Filters: []matstore.Filter{
			{Col: tpch.ColQuantity, Pred: pred.AtLeast(10)},
			{Col: tpch.ColQuantity, Pred: pred.LessThan(13)},
		},
	}
	runSelect(b, benchDB(b), q, matstore.LMParallel)
}

// BenchmarkJoinBuild isolates the hash-build phase of the join: the
// radix-partitioned build (BuildPartitioned) at worker counts 1 and 4, per
// inner-table materialization strategy. On the 1-CPU CI container the w1/w4
// gap reflects partitioning overhead only.
func BenchmarkJoinBuild(b *testing.B) {
	e := benchEnv(b)
	customer, err := e.DB.Projection(tpch.CustomerProj)
	if err != nil {
		b.Fatal(err)
	}
	keyCol, err := customer.Column(tpch.ColCustkey)
	if err != nil {
		b.Fatal(err)
	}
	valCol, err := customer.Column(tpch.ColNationcode)
	if err != nil {
		b.Fatal(err)
	}
	payload := []string{tpch.ColNationcode}
	const chunkSize = 65536
	for _, rs := range []operators.RightStrategy{
		operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
	} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/radix-w%d", rs, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rt, err := operators.BuildPartitioned(keyCol, []*storage.Column{valCol}, payload, rs, chunkSize, workers, 0)
					if err != nil {
						b.Fatal(err)
					}
					if rt.Probe(1) == nil {
						b.Fatal("empty build")
					}
				}
			})
		}
	}
}

// BenchmarkJoinProbe isolates the streaming probe phase (batched key and
// payload gathers, radix-routed lookups, and the single-column strategy's
// deferred batched fetch) by reusing one built hash side across iterations
// through a build cache of the plan's own.
func BenchmarkJoinProbe(b *testing.B) {
	e := benchEnv(b)
	orders, err := e.DB.Projection(tpch.OrdersProj)
	if err != nil {
		b.Fatal(err)
	}
	customer, err := e.DB.Projection(tpch.CustomerProj)
	if err != nil {
		b.Fatal(err)
	}
	exec := core.NewExecutor(e.DB.Pool(), core.Options{})
	q := core.JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    pred.LessThan(tpch.CustkeyForSelectivity(0.5, customer.TupleCount())),
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
	}
	for _, rs := range []operators.RightStrategy{
		operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
	} {
		pl, err := exec.BuildJoinPlan(orders, customer, q, rs)
		if err != nil {
			b.Fatal(err)
		}
		pl.Builds = operators.NewBuildCache(0)
		if _, _, err := exec.RunJoinPlanWith(pl, 1, plan.RunOptions{}); err != nil {
			b.Fatal(err) // populate the reused build
		}
		b.Run(rs.String(), func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				_, stats, err := exec.RunJoinPlanWith(pl, 1, plan.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				sink += stats.TuplesOut
			}
			_ = sink
		})
	}
}

// BenchmarkJoinSpill is the Grace-spill join end to end: orders ⋈ customer at
// parallelism 1 under a quarter of the build's estimated bytes, so the build
// leaves its one radix partition cold, every probe key waits for pass B, and
// pass B rebuilds the partition from the stored key column (see
// TestJoinSpillBytesPerOp for the bytes it may allocate).
func BenchmarkJoinSpill(b *testing.B) {
	db := benchDB(b)
	for _, sel := range []float64{0.5, 0.9} {
		q := spillJoinQuery(b, db, benchScale, sel)
		b.Run(fmt.Sprintf("sel=%.1f", sel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, stats, err := db.Join(tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized)
				if err != nil {
					b.Fatal(err)
				}
				if !stats.Join.Spilled || stats.Join.SpillProbes != stats.Join.LeftProbes {
					b.Fatalf("%d of %d probes spilled", stats.Join.SpillProbes, stats.Join.LeftProbes)
				}
			}
		})
	}
}
