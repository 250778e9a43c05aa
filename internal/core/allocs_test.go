package core

import (
	"testing"

	"matstore/internal/datasource"
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

// TestEMParallelAllocsPerChunk is the sibling contract for the SPC path: its
// kernels are compiled and its mask and value vectors allocated once per
// morsel, so what an additional chunk allocates is what reading it allocates —
// one window per referenced column — and nothing for predicates or
// construction. The test measures that scan-layer constant directly (the same
// windows, decompressed into recycled vectors, and nothing else) and holds the
// query's allocations per additional chunk to it plus two, the slack for a
// result column that regrows in a few more steps when it is fed in smaller
// pieces (0.4 of an allocation per chunk; 1.3 under the race detector). With
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
		// perChunk returns the allocations each additional chunk adds to run
		// when the rows are cut into chunks of the given width instead of 4096.
		perChunk := func(chunk int64, run func(chunk int64)) float64 {
			allocs := func(chunk int64) float64 {
				return testing.AllocsPerRun(3, func() { run(chunk) })
			}
			chunks := func(chunk int64) int64 { return (li.TupleCount() + chunk - 1) / chunk }
			return (allocs(chunk) - allocs(4096)) / float64(chunks(chunk)-chunks(4096))
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
		for _, chunk := range []int64{1024, 256} {
			got, scanOnly := perChunk(chunk, query), perChunk(chunk, scan)
			t.Logf("%s: chunks of %d: %.1f allocs per additional chunk, %.1f of them reading it", name, chunk, got, scanOnly)
			if got > scanOnly+2 {
				t.Errorf("%s: each additional chunk of %d rows costs %.1f allocations, reading it %.1f",
					name, chunk, got, scanOnly)
			}
		}
	}
}
