package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"matstore/internal/datasource"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// TestEMPipelinedAllocsPerChunk pins the recycled-batch contract from the
// outside: a serial EM-pipelined query builds its tuples in one batch per
// morsel and folds or copies them out of it, so cutting the same rows into
// more chunks must not cost tuple-construction allocations — no batch per
// chunk, no column regrown value by value, no map entry per tuple. What a
// chunk still allocates is the scan layer's: the window's mini-column, the
// filter's position set, run iterators and the gather's position list, a few
// small objects whose number does not depend on the chunk's width or on how
// many tuples survive. The test measures the allocations each additional
// chunk adds at two widths and holds them to that budget.
func TestEMPipelinedAllocsPerChunk(t *testing.T) {
	// budget is the scan layer's allowance per additional chunk. Measured: 16
	// to 20; with a batch per chunk and per column and append-grown columns
	// it was 60 to 77 (selection) and 135 to 177 (aggregation).
	const budget = 32
	db := openDB(t)
	li, err := db.Projection(tpch.LineitemProj)
	if err != nil {
		t.Fatal(err)
	}
	rowsN := li.TupleCount()
	queries := map[string]SelectQuery{
		"selection": lineitemQuery(tpch.ColLinenum, 2000, 7),
		"aggregation": {
			Filters: []Filter{
				{Col: tpch.ColShipdate, Pred: pred.LessThan(2000)},
				{Col: tpch.ColLinenum, Pred: pred.LessThan(7)},
			},
			GroupBy: tpch.ColRetflag,
			AggCol:  tpch.ColQuantity,
		},
	}
	for name, q := range queries {
		q.Parallelism = 1
		perQuery := func(chunk int64) (allocs float64, chunks int64) {
			e := NewExecutor(db.Pool(), Options{ChunkSize: chunk})
			allocs = testing.AllocsPerRun(3, func() {
				if _, _, err := e.Select(li, q, EMPipelined); err != nil {
					t.Fatal(err)
				}
			})
			return allocs, (rowsN + chunk - 1) / chunk
		}
		wideAllocs, wideChunks := perQuery(4096)
		for _, chunk := range []int64{1024, 256} {
			allocs, chunks := perQuery(chunk)
			perChunk := (allocs - wideAllocs) / float64(chunks-wideChunks)
			t.Logf("%s: %d chunks of %d: %.0f allocs (%.1f per additional chunk)", name, chunks, chunk, allocs, perChunk)
			if perChunk > budget {
				t.Errorf("%s: each additional chunk of %d rows costs %.1f allocations, budget %d",
					name, chunk, perChunk, budget)
			}
		}
	}
}

// allocsPerAdditionalChunk returns the allocations each additional chunk adds
// to run when a table's rows are cut into chunks of the given width instead of
// 4096.
func allocsPerAdditionalChunk(rows, chunk int64, run func(chunk int64)) float64 {
	allocs := func(chunk int64) float64 {
		return testing.AllocsPerRun(3, func() { run(chunk) })
	}
	chunks := func(chunk int64) int64 { return (rows + chunk - 1) / chunk }
	return (allocs(chunk) - allocs(4096)) / float64(chunks(chunk)-chunks(4096))
}

// TestEMParallelAllocsPerChunk is the sibling contract for the SPC path: its
// kernels are compiled and its mask and value vectors allocated once per
// morsel, so what an additional chunk allocates is what reading it allocates —
// one window per referenced column — plus the result chunk it constructs into,
// and nothing for predicates. The test measures that scan-layer constant
// directly (the same windows, decompressed into recycled vectors, and nothing
// else) and holds the query's allocations per additional chunk to it plus one
// array per output column and one chunk header. Emission is chunk-exact: each
// chunk's survivors get arrays of their own count instead of being appended to
// a result column that regrows, which cost 0.4 to 0.9 of an allocation per
// chunk but copied every row it held on each regrowth. (An aggregation's
// key/value vectors are recycled, so it stays at the scan's count.) With
// matchers compiled and a filter slice made per chunk the difference was
// three.
func TestEMParallelAllocsPerChunk(t *testing.T) {
	db := openDB(t)
	li, err := db.Projection(tpch.LineitemProj)
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]SelectQuery{
		"selection": lineitemQuery(tpch.ColLinenum, 2000, 7),
		"aggregation": {
			Filters: []Filter{
				{Col: tpch.ColShipdate, Pred: pred.LessThan(2000)},
				{Col: tpch.ColLinenum, Pred: pred.LessThan(7)},
			},
			GroupBy: tpch.ColRetflag,
			AggCol:  tpch.ColQuantity,
		},
	}
	for name, q := range queries {
		q.Parallelism = 1
		cols := make([]*storage.Column, 0, 4)
		for _, c := range q.referenced() {
			col, err := li.Column(c)
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, col)
		}
		vecs := make([][]int64, len(cols))
		perChunk := func(chunk int64, run func(chunk int64)) float64 {
			return allocsPerAdditionalChunk(li.TupleCount(), chunk, run)
		}
		query := func(chunk int64) {
			e := NewExecutor(db.Pool(), Options{ChunkSize: chunk})
			if _, _, err := e.Select(li, q, EMParallel); err != nil {
				t.Fatal(err)
			}
		}
		scan := func(chunk int64) {
			ch := datasource.NewChunker(cols[0].Extent(), chunk)
			for ci := 0; ci < ch.NumChunks(); ci++ {
				for i, c := range cols {
					mini, err := c.Window(ch.Chunk(ci))
					if err != nil {
						t.Fatal(err)
					}
					vecs[i] = mini.Decompress(vecs[i][:0])
				}
			}
		}
		emit := float64(len(q.outputNames()) + 1)
		for _, chunk := range []int64{1024, 256} {
			got, scanOnly := perChunk(chunk, query), perChunk(chunk, scan)
			t.Logf("%s: chunks of %d: %.1f allocs per additional chunk, %.1f of them reading it", name, chunk, got, scanOnly)
			if got > scanOnly+emit+1e-9 { // both sides are quotients of whole counts
				t.Errorf("%s: each additional chunk of %d rows costs %.1f allocations, reading it %.1f",
					name, chunk, got, scanOnly)
			}
		}
	}
}

// TestJoinProbeAllocsPerChunk is the same contract for the join's probe
// pipeline: key, payload and match scratch belong to the morsel and are sized
// before they are filled, matches emit into one result chunk of their count,
// and deferred right positions ride in the result itself — so what an
// additional outer chunk allocates is what reading it allocates plus a little
// (the deferred fetch and the multi-column gather run per result chunk).
// Reading it is measured through the same executor: the selection with the
// join's outer predicate and outer columns, its result chunk included (14
// allocations per additional chunk; the join reads 14 to 18). The in-memory
// strategies reuse one built hash side, so only the probe is measured; the
// fully spilled run rebuilds every time (its build is private to the run),
// which adds the inner table's own chunks — scanned by the build and again by
// pass B — and one placeholder list per chunk, hence its wider slack. Before the flat table and the reserve-once probe the
// join read 17 to 21 and the selection itself 18 to 23: it kept every chunk's
// position descriptor to count them after the merge.
func TestJoinProbeAllocsPerChunk(t *testing.T) {
	const slack, spillSlack = 3, 6
	db := openDB(t)
	orders, err := db.Projection(tpch.OrdersProj)
	if err != nil {
		t.Fatal(err)
	}
	customer, err := db.Projection(tpch.CustomerProj)
	if err != nil {
		t.Fatal(err)
	}
	q := joinTestQuery(true)
	q.Parallelism = 1
	perChunk := func(chunk int64, run func(chunk int64)) float64 {
		return allocsPerAdditionalChunk(orders.TupleCount(), chunk, run)
	}
	// Reading a chunk, through the same executor: the selection with the
	// join's outer predicate and outer columns — position scan, multi-column,
	// two extractions, merge into a result.
	sel := SelectQuery{
		Output:      []string{q.LeftKey, q.LeftOutput[0]},
		Filters:     []Filter{{Col: q.LeftKey, Pred: q.LeftPred}},
		Parallelism: 1,
	}
	scan := func(chunk int64) {
		e := NewExecutor(db.Pool(), Options{ChunkSize: chunk})
		if _, _, err := e.Select(orders, sel, LMPipelined); err != nil {
			t.Fatal(err)
		}
	}
	join := func(rs operators.RightStrategy, spill bool) func(chunk int64) {
		plans := map[int64]*plan.Plan{}
		return func(chunk int64) {
			e := NewExecutor(db.Pool(), Options{ChunkSize: chunk})
			pl := plans[chunk]
			if pl == nil {
				if pl, err = e.BuildJoinPlan(orders, customer, q, rs); err != nil {
					t.Fatal(err)
				}
				pl.Builds = operators.NewBuildCache(0)
				plans[chunk] = pl
			}
			var opt plan.RunOptions
			if spill {
				opt.Spill = &operators.SpillConfig{BudgetBytes: 1, EstBytes: 1 << 20}
			}
			if _, _, err := e.RunJoinPlanWith(pl, 1, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		run   func(chunk int64)
		slack float64
	}{
		{"right-materialized", join(operators.RightMaterialized, false), slack},
		{"right-multicolumn", join(operators.RightMultiColumn, false), slack},
		{"right-singlecolumn", join(operators.RightSingleColumn, false), slack},
		{"fully spilled", join(operators.RightMaterialized, true), spillSlack},
	} {
		tc.run(4096) // populate the reused build before counting
		for _, chunk := range []int64{1024, 256} {
			tc.run(chunk)
			got, scanOnly := perChunk(chunk, tc.run), perChunk(chunk, scan)
			t.Logf("%s: chunks of %d: %.1f allocs per additional chunk, %.1f of them reading it", tc.name, chunk, got, scanOnly)
			if got > scanOnly+tc.slack {
				t.Errorf("%s: each additional chunk of %d rows costs %.1f allocations, reading it %.1f",
					tc.name, chunk, got, scanOnly)
			}
		}
	}
}

// TestCappedSelectAllocs pins the output's late materialization from outside
// csperf: a request that keeps 100 rows must not allocate in proportion to the
// rows it produces. A 50 %-selectivity two-column selection over 300k rows
// (150k result rows, 2.4 MB of them) is run capped and uncapped under every
// strategy, and an orders-customer join (75k result rows) under the two
// inner strategies that seal per chunk, at parallelism 1 and 4 and at 1024-row
// and the default 64Ki-row chunks; the bytes a run allocates are read off
// MemStats.TotalAlloc.
//
// A capped morsel allocates the rows it keeps and nothing chunk-wide for the
// rest: a chunk past the cap is written into pooled scratch and folded, and a
// morsel's chunk-wide vectors are its worker's, made once for the run. What is
// left is about 3 kB a chunk in the scan layer (windows, position sets,
// iterators) and, at the default width, one set of vectors per worker: none
// for the late-materializing selections, which gather straight into the
// result chunk, and the decompressed columns, the batch or the probe's key,
// payload and match vectors for the others.
// Each bound is the most this test read on a 2-CPU host over 50 runs, idle
// and beside other tests, with a tenth on top. How many worker sets a run at
// four workers makes depends on the scheduler, so the early strategies' bound
// there at 64Ki-row chunks is one set per worker: the reading at one set
// (1,767 and 1,275 kB) plus three more, a tenth on top. With the scratch and
// the vectors made per morsel the same requests allocated 265 to 846 kB
// (1024-row chunks), 1.7 to 14 MB (64Ki-row) and 69 kB to 3.4 MB (joins).
// The race detector drops pooled items at random and adds its own, so under
// it only the earlier 1024-row selection bound of 2.2 MB applies. The
// uncapped floors keep the test from passing on a table too small to tell
// capped from uncapped.
func TestCappedSelectAllocs(t *testing.T) {
	dir := t.TempDir()
	if err := tpch.Generate(dir, tpch.Config{Scale: 0.05, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.OpenDB(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	projection := func(name string) *storage.Projection {
		p, err := db.Projection(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	li, orders, customer := projection(tpch.LineitemProj), projection(tpch.OrdersProj), projection(tpch.CustomerProj)
	sel := func(s Strategy) func(e *Executor, par, limit int) {
		q := SelectQuery{
			Output:  []string{tpch.ColShipdate, tpch.ColLinenum},
			Filters: []Filter{{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(0.5))}},
		}
		return func(e *Executor, par, limit int) {
			q.Parallelism, q.Limit = par, limit
			if _, _, err := e.Select(li, q, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A join reuses one hash side per chunk width, so what is counted is the
	// probe's.
	join := func(rs operators.RightStrategy) func(e *Executor, par, limit int) {
		plans := map[*Executor]*plan.Plan{}
		return func(e *Executor, par, limit int) {
			pl := plans[e]
			if pl == nil {
				if pl, err = e.BuildJoinPlan(orders, customer, joinTestQuery(false), rs); err != nil {
					t.Fatal(err)
				}
				pl.Builds = operators.NewBuildCache(0)
				plans[e] = pl
			}
			if _, _, err := e.RunJoinPlanWith(pl, par, plan.RunOptions{Limit: limit}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// bytesPerRun is the least one run of ten allocates: what the request
	// itself costs, apart from a pool the collector emptied or a worker set
	// the scheduler's timing added.
	bytesPerRun := func(e *Executor, run func(e *Executor, par, limit int), par, limit int) float64 {
		run(e, par, limit) // the pool reads the blocks once
		least := math.Inf(1)
		for range 10 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(e, par, limit)
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	widths := [2]int64{1024, datasource.DefaultChunkSize}
	pars := [2]int{1, 4}
	for _, tc := range []struct {
		name  string
		run   func(e *Executor, par, limit int)
		floor float64       // bytes the uncapped request allocates at least
		kB    [2][2]float64 // the capped bound, by width and parallelism
	}{
		{"EM-pipelined", sel(EMPipelined), 2 << 20, [2][2]float64{{313, 420}, {1925, 7010}}},
		{"EM-parallel", sel(EMParallel), 2 << 20, [2][2]float64{{295, 378}, {1360, 4780}}},
		{"LM-pipelined", sel(LMPipelined), 2 << 20, [2][2]float64{{257, 282}, {222, 233}}},
		{"LM-parallel", sel(LMParallel), 2 << 20, [2][2]float64{{257, 282}, {222, 233}}},
		{"join/right-materialized", join(operators.RightMaterialized), 1 << 20, [2][2]float64{{41, 138}, {1975, 2286}}},
		{"join/right-multicolumn", join(operators.RightMultiColumn), 1 << 20, [2][2]float64{{117, 355}, {2045, 2427}}},
	} {
		for w, chunk := range widths {
			e := NewExecutor(db.Pool(), Options{ChunkSize: chunk})
			for p, par := range pars {
				capped, uncapped := bytesPerRun(e, tc.run, par, 100), bytesPerRun(e, tc.run, par, 0)
				t.Logf("%s/par=%d/chunk=%d: %.0f kB a request at limit 100, %.0f kB uncapped", tc.name, par, chunk, capped/1024, uncapped/1024)
				bound := tc.kB[w][p] * 1024
				if raceDetector {
					bound = math.Inf(1)
					if chunk == 1024 && !strings.HasPrefix(tc.name, "join") {
						bound = 2.2 * (1 << 20)
					}
				}
				if capped > bound {
					t.Errorf("%s/par=%d/chunk=%d: a request keeping 100 rows allocates %.0f kB, bound %.0f", tc.name, par, chunk, capped/1024, bound/1024)
				}
				if uncapped < tc.floor {
					t.Errorf("%s/par=%d/chunk=%d: the uncapped request allocates only %.0f kB: the table is too small to show a cap", tc.name, par, chunk, uncapped/1024)
				}
			}
		}
	}
}

// raceDetector reports a build under the race detector (race_test.go).
var raceDetector bool
