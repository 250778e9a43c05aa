package core

import (
	"math"
	"runtime"
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
// csperf: a selection that keeps 100 rows must not allocate in proportion to
// the rows it produces. A 50 %-selectivity two-column selection over 300k rows
// (150k result rows, 2.4 MB of them) is run capped and uncapped under every
// strategy at parallelism 1 and 4, and the bytes a run allocates are read off
// MemStats.TotalAlloc. At 1024-row chunks it allocates 3.1 to 3.4 MB uncapped
// (the result, written once into chunks of exactly each chunk's survivors;
// 13 to 15 MB while one result column per morsel was regrown and the morsels'
// columns concatenated) and 0.7 to 1.3 MB capped (1.8 under the race
// detector), none of which is the result's: about 3 kB a chunk in the scan
// layer (windows, position sets, iterators — 293 chunks here) and, per morsel,
// the recycled chunk-wide vectors and a result that holds the cap plus one
// chunk (16 morsels at parallelism 4). The bound is the earlier measurement
// with a fifth on top; the uncapped floor, a little under the result's own
// 2.4 MB, keeps the test from passing on a table too small to tell the two
// apart. At the default 64Ki-row chunks the morsels' vectors are what a capped
// request allocates, and the figures are printed, not bounded (the race
// detector adds half again to them): the late-materializing strategies gather
// straight into the result chunk — 2.0 MB at one worker and 3.0 MB at four,
// where gathering into sized vectors first cost 3.7 and 5.4 MB and growing
// those from nil by append 6.6 and 12.9 MB — and the early-materializing ones
// decompress whole chunks (4.6 to 14.4 MB).
func TestCappedSelectAllocs(t *testing.T) {
	const uncappedMin = 2 << 20
	dir := t.TempDir()
	if err := tpch.Generate(dir, tpch.Config{Scale: 0.05, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.OpenDB(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	li, err := db.Projection(tpch.LineitemProj)
	if err != nil {
		t.Fatal(err)
	}
	q := SelectQuery{
		Output:  []string{tpch.ColShipdate, tpch.ColLinenum},
		Filters: []Filter{{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(0.5))}},
	}
	bytesPerRun := func(e *Executor, q SelectQuery, s Strategy) float64 {
		const runs = 3
		run := func() {
			if _, _, err := e.Select(li, q, s); err != nil {
				t.Fatal(err)
			}
		}
		run() // the pool reads the blocks once
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, width := range []struct {
		chunk     int64
		cappedMax float64 // bytes a capped request may allocate
	}{
		{1024, 2.2 * (1 << 20)},
		{datasource.DefaultChunkSize, math.Inf(1)},
	} {
		e := NewExecutor(db.Pool(), Options{ChunkSize: width.chunk})
		for _, s := range Strategies {
			for _, par := range []int{1, 4} {
				q.Parallelism = par
				q.Limit = 100
				capped := bytesPerRun(e, q, s)
				q.Limit = 0
				uncapped := bytesPerRun(e, q, s)
				t.Logf("%v/par=%d/chunk=%d: %.0f kB a request at limit 100, %.0f kB uncapped", s, par, width.chunk, capped/1024, uncapped/1024)
				if capped > width.cappedMax {
					t.Errorf("%v/par=%d/chunk=%d: a request keeping 100 rows allocates %.0f kB, bound %.0f", s, par, width.chunk, capped/1024, width.cappedMax/1024)
				}
				if uncapped < uncappedMin {
					t.Errorf("%v/par=%d/chunk=%d: the uncapped request allocates only %.0f kB: the table is too small to show a cap", s, par, width.chunk, uncapped/1024)
				}
			}
		}
	}
}
