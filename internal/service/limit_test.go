// Row-cap suite: a served request keeps the rows it shows. The executor caps
// the run at the request's limit, the result cache stores what the run
// returned and answers from an entry only when it holds enough, and row_count,
// checksum and a shard's rowids are what an uncapped run would have reported.
// Runs under -race via `go test -race ./internal/...`; ci.sh repeats the
// concurrent test five times.
package service_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"matstore"
	"matstore/internal/core"
	"matstore/internal/oracle"
	"matstore/internal/service"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// shownRows renders the first n rows of full as a reply's rows.
func shownRows(full *matstore.Result, n int) [][]int64 {
	rows := make([][]int64, min(n, full.NumRows()))
	for i := range rows {
		rows[i] = full.Row(i)
	}
	return rows
}

// TestResultCacheCoversLimit walks one selection and one join shape through
// the limits 10, 1000, 10, -1, 10, 1000, -1 over HTTP. Each reply must show
// the reference's leading rows with its count and checksum; an entry answers a
// request only when it holds the rows asked for (10 after 1000) or the whole
// result (anything after -1); a wider request is a miss that replaces the
// entry rather than adding one.
func TestResultCacheCoversLimit(t *testing.T) {
	ref := openDB(t)
	selFull, selStats, err := ref.Select(tpch.LineitemProj, selQuery(1200), matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	jq := joinReq()
	jq.LeftPred = matstore.MatchAll
	joinFull, joinStats, err := ref.Join(tpch.OrdersProj, tpch.CustomerProj, jq, matstore.RightSingleColumn)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name, path, body string // %d is the limit
		full             *matstore.Result
		checksum         int64
	}{
		{"selection", "/query", `{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<1200"],"strategy":"lm-parallel","limit":%d}`,
			selFull, selStats.OutputChecksum},
		{"join", "/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"rightstrategy":"right-singlecolumn","limit":%d}`,
			joinFull, joinStats.OutputChecksum},
	} {
		if shape.full.NumRows() <= 1000 {
			t.Fatalf("%s: the reference has %d rows, the walk needs more than 1000", shape.name, shape.full.NumRows())
		}
		srv := newServer(t, fullConfig(2, 4))
		ts := httptest.NewServer(srv.Handler())
		for step, tc := range []struct {
			limit int
			hit   bool
		}{
			{10, false}, {1000, false}, {10, true}, {-1, false}, {10, true}, {1000, true}, {-1, true},
		} {
			var got service.QueryResponse
			postJSON(t, ts.URL+shape.path, fmt.Sprintf(shape.body, tc.limit), &got)
			label := fmt.Sprintf("%s step %d (limit %d)", shape.name, step, tc.limit)
			if got.ResultCacheHit != tc.hit {
				t.Errorf("%s: result_cache_hit = %v, want %v", label, got.ResultCacheHit, tc.hit)
			}
			shown := tc.limit
			if shown < 0 {
				shown = shape.full.NumRows()
			}
			if !reflect.DeepEqual(got.Rows, shownRows(shape.full, shown)) {
				t.Errorf("%s: %d rows shown, not the reference's first %d", label, len(got.Rows), shown)
			}
			if got.RowCount != shape.full.NumRows() || got.Checksum != shape.checksum {
				t.Errorf("%s: row_count/checksum %d/%d, want %d/%d",
					label, got.RowCount, got.Checksum, shape.full.NumRows(), shape.checksum)
			}
			if st := srv.Stats().ResultCache; st.Entries != 1 {
				t.Errorf("%s: %d cached entries for one shape", label, st.Entries)
			}
		}
		if st := srv.Stats().ResultCache; st.Hits != 4 || st.Misses != 3 {
			t.Errorf("%s: %d hits and %d misses, want 4 and 3", shape.name, st.Hits, st.Misses)
		}
		ts.Close()
	}
}

// TestRowIDsUnderLimit: a shard's rowids=true reply — the hidden row-id column
// read beside the outputs, its shown values moved into rowids, its total taken
// off the checksum — is unchanged by the cap for results smaller than, equal
// to and larger than the limit: the checksum still covers every row of the
// requested columns and no row-id value, though only the shown rows exist.
func TestRowIDsUnderLimit(t *testing.T) {
	dir := fmt.Sprintf("%s/s2/shard-000", keypartData(t))
	db, err := matstore.Open(dir, matstore.Options{Exec: core.Options{ChunkSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	full, _, err := db.Select(tpch.OrdersProj, matstore.Query{
		Output:  []string{tpch.ColOrderShipdate, storage.RowIDColumn},
		Filters: []matstore.Filter{{Col: tpch.ColCustkey, Pred: matstore.LessThan(200)}},
	}, matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	jq := joinReq()
	jq.LeftOutput = append(jq.LeftOutput, storage.RowIDColumn)
	joinFull, _, err := db.Join(tpch.OrdersProj, tpch.CustomerProj, jq, matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name, path, body string // %d is the limit
		full             *matstore.Result
		rowid            int // the row-id column's place in full
	}{
		{"selection", "/query", `{"projection":"orders","output":["shipdate"],"where":["custkey<200"],"strategy":"lm-parallel","rowids":true,"limit":%d}`, full, 1},
		{"join", "/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<100"],"rowids":true,"limit":%d}`, joinFull, 1},
	} {
		n := shape.full.NumRows()
		if n < 3 {
			t.Fatalf("%s: the reference has %d rows", shape.name, n)
		}
		var wantSum int64
		for c, col := range shape.full.Cols {
			if c != shape.rowid {
				for _, v := range col {
					wantSum += v
				}
			}
		}
		for _, limit := range []int{n + 1, n, n - 1, 1} {
			// A server per limit: every reply comes from a run capped at it.
			srv := service.New(db, service.Config{WorkerBudget: 2, MaxConcurrent: 4})
			ts := httptest.NewServer(srv.Handler())
			var got service.QueryResponse
			postJSON(t, ts.URL+shape.path, fmt.Sprintf(shape.body, limit), &got)
			ts.Close()
			label := fmt.Sprintf("%s: %d rows at limit %d", shape.name, n, limit)
			shown := min(limit, n)
			if !slices.Equal(got.RowIDs, shape.full.Cols[shape.rowid][:shown]) {
				t.Errorf("%s: rowids %v", label, got.RowIDs)
			}
			var wantRows [][]int64
			for _, row := range shownRows(shape.full, shown) {
				wantRows = append(wantRows, slices.Delete(row, shape.rowid, shape.rowid+1))
			}
			if !reflect.DeepEqual(got.Rows, wantRows) {
				t.Errorf("%s: rows differ from the reference's first %d", label, shown)
			}
			if got.RowCount != n || got.Checksum != wantSum {
				t.Errorf("%s: row_count/checksum %d/%d, want %d/%d", label, got.RowCount, got.Checksum, n, wantSum)
			}
			if slices.Contains(got.Columns, storage.RowIDColumn) {
				t.Errorf("%s: columns %v still name the row-id column", label, got.Columns)
			}
		}
	}
}

// TestResultCacheConcurrentLimits runs capped and uncapped requests for one
// shape from many goroutines at once: whichever of them executes and whichever
// entry is resident when the others look, every reply holds the reference's
// leading rows — at least as many as it asked for — and its count and sums.
func TestResultCacheConcurrentLimits(t *testing.T) {
	srv := newServer(t, fullConfig(2, 8))
	ctx := context.Background()
	full, _, err := openDB(t).Select(tpch.LineitemProj, selQuery(1200), matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	limits := []int{1, 0, 100, 1000, 0, 10}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := srv.NewSession()
			for i := 0; i < 12; i++ {
				q := selQuery(1200)
				q.Limit = limits[(w+i)%len(limits)]
				out, err := sess.Select(ctx, tpch.LineitemProj, q, matstore.LMParallel)
				if err != nil {
					errs[w] = err
					return
				}
				// A hit may hold more rows than were asked for, never fewer.
				held := out.Res.NumRows()
				if q.Limit == 0 || held < q.Limit {
					held = q.Limit
				}
				if err := oracle.Capped(out.Res, full.Cols, held); err != nil {
					errs[w] = fmt.Errorf("request %d at limit %d (hit=%v): %v", i, q.Limit, out.Info.ResultCacheHit, err)
					return
				}
				if out.Stats.TuplesOut != full.Total || out.Stats.OutputChecksum != full.Checksum() {
					errs[w] = fmt.Errorf("request %d at limit %d: stats report %d rows summing to %d", i, q.Limit,
						out.Stats.TuplesOut, out.Stats.OutputChecksum)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Admission.Admitted+st.ResultCache.Hits != workers*12 {
		t.Errorf("admitted(%d) + result hits(%d) != requests(%d)", st.Admission.Admitted, st.ResultCache.Hits, workers*12)
	}
}

// TestResultCacheChargesAggregators: a cached aggregation retains the merged
// aggregator behind its rows (a shard exports its groups from it), which is
// several times the two emitted columns. The entry must be charged for it —
// or a cache of GROUP BY results holds several times its capacity, which is
// what this measures: twenty-four distinct aggregations through a 512 KiB
// cache must leave the heap within 1.5 capacities of where it started.
func TestResultCacheChargesAggregators(t *testing.T) {
	const capacity = 512 << 10
	db := openDB(t)
	agg := func(i int) matstore.Query {
		return matstore.Query{
			Filters: []matstore.Filter{{Col: tpch.ColQuantity, Pred: matstore.LessThan(int64(tpch.QuantityMax - i))}},
			GroupBy: tpch.ColShipdate,
			AggCol:  tpch.ColQuantity,
		}
	}
	const shapes = 24
	for i := 0; i < shapes; i++ { // the pool reads every block before the heap is measured
		if _, _, err := db.Select(tpch.LineitemProj, agg(i), matstore.LMParallel); err != nil {
			t.Fatal(err)
		}
	}
	cfg := fullConfig(2, 4)
	cfg.ResultCacheBytes = capacity
	cfg.PlanCacheEntries = -1
	srv := service.New(db, cfg)
	sess := srv.NewSession()
	ctx := context.Background()

	first, err := sess.Select(ctx, tpch.LineitemProj, agg(0), matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Groups < 1000 {
		t.Fatalf("the fixture aggregation has %d groups, too few for the aggregator to matter", first.Stats.Groups)
	}
	if charged, held := srv.Stats().ResultCache.Bytes, first.Stats.AggState.MemBytes(); charged < held {
		t.Errorf("an entry of %d groups is charged %d bytes, its aggregator alone holds %d", first.Stats.Groups, charged, held)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i < shapes; i++ {
		if _, err := sess.Select(ctx, tpch.LineitemProj, agg(i), matstore.LMParallel); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := srv.Stats().ResultCache
	if st.Bytes > st.Capacity {
		t.Errorf("result cache over budget: %d > %d", st.Bytes, st.Capacity)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d entries charged %d of %d bytes; the heap grew by %d", st.Entries, st.Bytes, st.Capacity, grown)
	if grown > capacity*3/2 {
		t.Errorf("%d aggregations through a %d-byte result cache grew the heap by %d bytes", shapes, capacity, grown)
	}
	runtime.KeepAlive(srv)
}
