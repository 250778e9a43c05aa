package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"matstore"
	"matstore/internal/faults"
	"matstore/internal/oracle"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// memoryJoinQueries is the join workload the memory-governance suite replays:
// every inner-table strategy, predicated and full-scan outer sides.
func memoryJoinQueries() []struct {
	name string
	q    matstore.JoinQuery
	rs   matstore.RightStrategy
} {
	var out []struct {
		name string
		q    matstore.JoinQuery
		rs   matstore.RightStrategy
	}
	for _, rs := range matstore.JoinStrategies {
		for _, withPred := range []bool{true, false} {
			q := matstore.JoinQuery{
				LeftKey:     tpch.ColCustkey,
				LeftPred:    matstore.MatchAll,
				LeftOutput:  []string{tpch.ColOrderShipdate},
				RightKey:    tpch.ColCustkey,
				RightOutput: []string{tpch.ColNationcode},
			}
			if withPred {
				q.LeftPred = matstore.LessThan(150)
			}
			out = append(out, struct {
				name string
				q    matstore.JoinQuery
				rs   matstore.RightStrategy
			}{fmt.Sprintf("%v/pred=%v", rs, withPred), q, rs})
		}
	}
	return out
}

// assertNoSpillFiles fails if the shared test database's directory holds a
// .spill entry: a spilled join rebuilds its cold partitions from the stored
// key column and writes nothing.
func assertNoSpillFiles(t *testing.T) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(testData(t), ".spill")); !os.IsNotExist(err) {
		t.Errorf("the database directory holds a .spill entry (stat: %v)", err)
	}
}

// TestDifferentialSpillJoin is the memory-governance acceptance suite at the
// serving layer: the same join workload served under byte budgets that force
// full spilling, partial spilling and pure in-memory execution, at worker
// budgets 1 and 4, must return results byte-identical to ungoverned direct
// execution; reservations fully drain; nothing is written to the database
// directory.
func TestDifferentialSpillJoin(t *testing.T) {
	ref := openDB(t)
	queries := memoryJoinQueries()
	want := make([]*matstore.Result, len(queries))
	for i, jq := range queries {
		q := jq.q
		q.Parallelism = 1
		res, _, err := ref.Join(tpch.OrdersProj, tpch.CustomerProj, q, jq.rs)
		if err != nil {
			t.Fatalf("%s: %v", jq.name, err)
		}
		want[i] = res
	}

	// 1 KiB spills every partition; 8 KiB fits some partitions of the ~17 KiB
	// customer build but not all; 1 GiB admits everything in memory.
	for _, budget := range []int64{1 << 10, 8 << 10, 1 << 30} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("budget=%d/workers=%d", budget, workers), func(t *testing.T) {
				srv := newServer(t, service.Config{
					WorkerBudget:      workers,
					MemoryBudgetBytes: budget,
					ResultCacheBytes:  -1, // observe real executions
				})
				sess := srv.NewSession()
				spilled := 0
				for i, jq := range queries {
					out, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, jq.q, jq.rs)
					if err != nil {
						t.Fatalf("%s: %v", jq.name, err)
					}
					if !reflect.DeepEqual(oracle.Columns(out.Res), oracle.Columns(want[i])) ||
						!reflect.DeepEqual(out.Res.Columns, want[i].Columns) {
						t.Errorf("%s: served result differs from ungoverned reference (%d vs %d rows)",
							jq.name, out.Res.NumRows(), want[i].NumRows())
					}
					if out.Stats.Join.Spilled {
						spilled++
					}
					if out.Info.ReservedBytes <= 0 {
						t.Errorf("%s: no memory reservation reported", jq.name)
					}
					if out.Info.ReservedBytes > budget {
						t.Errorf("%s: reservation %d exceeds budget %d", jq.name, out.Info.ReservedBytes, budget)
					}
				}
				st := srv.Stats()
				if budget == 1<<10 && spilled != len(queries) {
					t.Errorf("tiny budget: %d/%d joins spilled, want all", spilled, len(queries))
				}
				if budget == 1<<30 && spilled != 0 {
					t.Errorf("large budget: %d joins spilled, want none", spilled)
				}
				if spilled > 0 && (st.Memory.SpilledJoins != int64(spilled) || st.Memory.SpillBytes == 0) {
					t.Errorf("spill counters: %+v, want %d spilled joins with bytes", st.Memory, spilled)
				}
				if st.Memory.Reserved != 0 {
					t.Errorf("reservations leaked: %d bytes still held", st.Memory.Reserved)
				}
				if st.Memory.PeakReserved > budget {
					t.Errorf("peak reserved %d exceeded budget %d", st.Memory.PeakReserved, budget)
				}
				assertNoSpillFiles(t)
			})
		}
	}
}

// TestJoinFaultCleanupAndRecovery injects a fault into pass B of a governed
// spilled join and pins the robustness contract: the request fails with a
// clean error, the byte reservation is released, no goroutines leak and
// nothing is written — and the server keeps serving correct results once the
// fault clears.
func TestJoinFaultCleanupAndRecovery(t *testing.T) {
	defer faults.Reset()
	baseGoroutines := runtime.NumGoroutine()
	srv := newServer(t, service.Config{
		WorkerBudget:      2,
		MemoryBudgetBytes: 1 << 10, // every join spills
		ResultCacheBytes:  -1,
	})
	sess := srv.NewSession()
	q := matstore.JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    matstore.MatchAll,
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
	}
	ref, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Stats.Join.Spilled {
		t.Fatal("fixture join did not spill; fault sites would not be reached")
	}

	cases := []struct {
		site string
		fp   faults.Failpoint
	}{
		{"spill.read", faults.Failpoint{Mode: faults.Error}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/mode=%d/after=%d", tc.site, tc.fp.Mode, tc.fp.After), func(t *testing.T) {
			faults.Enable(tc.site, tc.fp)
			_, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized)
			faults.Reset()
			if err == nil {
				t.Fatalf("join succeeded with %s armed", tc.site)
			}
			st := srv.Stats()
			if st.Memory.Reserved != 0 {
				t.Errorf("reservation leaked after %s fault: %d bytes", tc.site, st.Memory.Reserved)
			}
			assertNoSpillFiles(t)

			// The fault is cleared: the very next request must serve correctly.
			out, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized)
			if err != nil {
				t.Fatalf("server did not recover after %s fault: %v", tc.site, err)
			}
			if !reflect.DeepEqual(oracle.Columns(out.Res), oracle.Columns(ref.Res)) {
				t.Errorf("post-recovery result differs after %s fault", tc.site)
			}
		})
	}

	// Cancellation mid-request behaves like a fault: clean error, no leaks.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized); err == nil {
		t.Error("cancelled join succeeded")
	}
	if st := srv.Stats(); st.Memory.Reserved != 0 {
		t.Errorf("cancelled join leaked %d reserved bytes", st.Memory.Reserved)
	}
	assertNoSpillFiles(t)

	// Allocation pressure at the governor: TryReserve fails as if the budget
	// were gone, the join falls back to spill mode and still serves.
	faults.Enable("mem.reserve", faults.Failpoint{Mode: faults.Error})
	out, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized)
	faults.Reset()
	if err != nil {
		t.Fatalf("join under allocation pressure: %v", err)
	}
	if !out.Stats.Join.Spilled {
		t.Error("allocation pressure did not force spill mode")
	}
	if !reflect.DeepEqual(oracle.Columns(out.Res), oracle.Columns(ref.Res)) {
		t.Error("allocation-pressure result differs")
	}

	// No goroutines survive the faults (morsel workers are joined per run).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseGoroutines+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		t.Errorf("goroutines did not settle: %d, started with %d", n, baseGoroutines)
	}
}

// TestExplainJoinTakesTheJoinGrant: a served EXPLAIN of a join is the join's
// request run observed, so it asks for the join's build-side bytes, takes the
// same grant — a spill-mode one when allocation pressure refuses the full
// estimate — runs the same Grace build, renders its spill line and counts in
// /stats as a spilled join.
func TestExplainJoinTakesTheJoinGrant(t *testing.T) {
	defer faults.Reset()
	srv := newServer(t, service.Config{WorkerBudget: 2, MemoryBudgetBytes: 64 << 20, ResultCacheBytes: -1})
	sess := srv.NewSession()
	ctx := context.Background()
	faults.Enable("mem.reserve", faults.Failpoint{Mode: faults.Error})
	join, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	ex, info, err := sess.ExplainJoin(ctx, tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	faults.Reset()
	t.Logf("join: reserved=%d spilled=%v; explain: reserved=%d spilled=%v",
		join.Info.ReservedBytes, join.Info.Spilled, info.ReservedBytes, info.Spilled)
	if !join.Info.Spilled || join.Info.ReservedBytes <= 0 {
		t.Fatalf("fixture join: reserved=%d spilled=%v, want a spill-mode grant", join.Info.ReservedBytes, join.Info.Spilled)
	}
	if info.ReservedBytes != join.Info.ReservedBytes {
		t.Errorf("explain reserved %d bytes, the join %d", info.ReservedBytes, join.Info.ReservedBytes)
	}
	if !info.Spilled || !ex.JoinStats.Join.Spilled {
		t.Errorf("explain: Info.Spilled=%v JoinStats.Join.Spilled=%v, want both", info.Spilled, ex.JoinStats.Join.Spilled)
	}
	if !strings.Contains(ex.String(), "spill:") {
		t.Errorf("explain renders no spill line:\n%s", ex)
	}
	if got := srv.Stats().Memory.SpilledJoins; got != 2 {
		t.Errorf("/stats spilled_joins = %d, want 2 (the join and its explain)", got)
	}
	if !reflect.DeepEqual(oracle.Columns(ex.Result), oracle.Columns(join.Res)) {
		t.Error("explained result differs from the served join's")
	}
}

// TestHealthEndpoints pins /healthz (liveness: always 200) and /readyz
// (readiness: 503 once draining), including the drain flip MarkDraining
// performs on SIGTERM.
func TestHealthEndpoints(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		decodeInto(t, resp, &body)
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("/healthz = %d %v, want 200 ok", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Errorf("/readyz = %d %v, want 200 ready", code, body)
	}

	srv.MarkDraining()
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable || body["ready"] != false || body["draining"] != true {
		t.Errorf("/readyz while draining = %d %v, want 503 draining", code, body)
	}
	// Liveness is unaffected by draining: the process is still up.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200", code)
	}
}

func decodeInto(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeResultCache: a query shape that matches nothing is cached in the
// one result LRU like any other response and answered from cache on repeat.
func TestNegativeResultCache(t *testing.T) {
	srv := newServer(t, fullConfig(2, 4))
	sess := srv.NewSession()
	q := matstore.Query{
		Output:  []string{tpch.ColShipdate},
		Filters: []matstore.Filter{{Col: tpch.ColShipdate, Pred: matstore.LessThan(0)}},
	}
	first, err := sess.Select(context.Background(), tpch.LineitemProj, q, matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if first.Res.NumRows() != 0 {
		t.Fatalf("fixture query returned %d rows, want 0", first.Res.NumRows())
	}
	if first.Info.ResultCacheHit {
		t.Error("first execution reported a cache hit")
	}
	second, err := sess.Select(context.Background(), tpch.LineitemProj, q, matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Info.ResultCacheHit {
		t.Error("repeated zero-row query missed the cache")
	}
	st := srv.Stats().ResultCache
	if st.Hits != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("result cache stats = hits %d entries %d bytes %d, want 1/1/>0",
			st.Hits, st.Entries, st.Bytes)
	}

}

// TestBuildCacheEvictionLeavesNoFiles: under a memory budget, a build cache
// that holds one customer build (24 KiB) evicts it on every switch between two
// join shapes with distinct builds. An evicted build is dropped and rebuilt on
// its next miss, so every reply equals the first of its shape and nothing is
// written to the database directory.
func TestBuildCacheEvictionLeavesNoFiles(t *testing.T) {
	srv := newServer(t, service.Config{
		WorkerBudget:      2,
		MemoryBudgetBytes: 1 << 30,  // plenty: joins run in memory, builds cache
		BuildCacheBytes:   24 << 10, // one ~17 KiB customer build fits, two don't
		ResultCacheBytes:  -1,
	})
	sess := srv.NewSession()
	q := matstore.JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    matstore.MatchAll,
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
	}
	strats := []matstore.RightStrategy{matstore.RightMaterialized, matstore.RightMultiColumn}
	first := make([]*matstore.Result, len(strats))
	for round := 0; round < 8; round++ {
		for i, rs := range strats {
			out, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, q, rs)
			if err != nil {
				t.Fatalf("round %d %v: %v", round, rs, err)
			}
			if out.Info.Spilled {
				t.Fatalf("round %d %v: join spilled under a 1 GiB budget", round, rs)
			}
			if first[i] == nil {
				first[i] = out.Res
			} else if !reflect.DeepEqual(oracle.Columns(out.Res), oracle.Columns(first[i])) {
				t.Fatalf("round %d %v: reply differs from the shape's first", round, rs)
			}
		}
	}
	st := srv.Stats().BuildCache
	if st.Evictions < 8 || st.Entries != 1 {
		t.Errorf("build cache = %+v, want an eviction per switch and one entry", st)
	}
	assertNoSpillFiles(t)
}
