package core

import (
	"testing"

	"matstore/internal/pred"
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
