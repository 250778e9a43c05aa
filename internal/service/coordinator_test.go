// Coordinator differential suite: every scatter-gather response must be
// byte-identical (rows, row order, row count, checksum) to a single-process
// engine over the un-sharded directory, at shard counts {1,2,4} and
// parallelism {1,4}. Runs under -race via `go test -race ./internal/...`.
package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matstore"
	"matstore/internal/core"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

var (
	shardedOnce sync.Once
	shardedRoot string
	shardedErr  error

	keypartOnce sync.Once
	keypartRoot string
	keypartErr  error
)

// shardedData generates one sharded layout per shard count, from the SAME
// generator config as the shared single-directory dataset, under a common
// temp root removed by TestMain.
func shardedData(t *testing.T) string {
	t.Helper()
	shardedOnce.Do(func() {
		shardedRoot, shardedErr = os.MkdirTemp("", "matstore-shard-test")
		if shardedErr != nil {
			return
		}
		for _, n := range []int{1, 2, 4} {
			dir := fmt.Sprintf("%s/s%d", shardedRoot, n)
			if shardedErr = os.MkdirAll(dir, 0o755); shardedErr != nil {
				return
			}
			if _, shardedErr = tpch.GenerateSharded(dir, tpch.Config{Scale: 0.002, Seed: 5}, n); shardedErr != nil {
				return
			}
		}
	})
	if shardedErr != nil {
		t.Fatal(shardedErr)
	}
	return shardedRoot
}

// keypartData generates one MIXED layout per shard count from the same
// generator config: orders and customer hash-partitioned on custkey (their
// join key), lineitem still range-sharded — the composition the coordinator
// must route per projection.
func keypartData(t *testing.T) string {
	t.Helper()
	keypartOnce.Do(func() {
		keypartRoot, keypartErr = os.MkdirTemp("", "matstore-keypart-test")
		if keypartErr != nil {
			return
		}
		layout := tpch.ShardLayout{PartitionKeys: map[string]string{
			tpch.OrdersProj:   tpch.ColCustkey,
			tpch.CustomerProj: tpch.ColCustkey,
		}}
		for _, n := range []int{1, 2, 4} {
			dir := fmt.Sprintf("%s/s%d", keypartRoot, n)
			if keypartErr = os.MkdirAll(dir, 0o755); keypartErr != nil {
				return
			}
			if _, keypartErr = tpch.GenerateShardedLayout(dir, tpch.Config{Scale: 0.002, Seed: 5}, n, layout); keypartErr != nil {
				return
			}
		}
	})
	if keypartErr != nil {
		t.Fatal(keypartErr)
	}
	return keypartRoot
}

// fleet is a running scatter-gather deployment: one engine per shard behind
// httptest plus a coordinator fronting them.
type fleet struct {
	Coord *service.Coordinator
	URL   string // coordinator endpoint
}

// newFleet boots shard engines over root/s<shards>/shard-* and a
// coordinator over them. Engines run with a small chunk size so even the
// 12k-row test tables split into many morsels.
func newFleet(t *testing.T, shards int, coordCfg service.CoordinatorConfig) *fleet {
	t.Helper()
	return newFleetAt(t, fmt.Sprintf("%s/s%d", shardedData(t), shards), shards, coordCfg)
}

// newKeypartFleet boots a fleet over the mixed key-partitioned layout.
func newKeypartFleet(t *testing.T, shards int, coordCfg service.CoordinatorConfig) *fleet {
	t.Helper()
	return newFleetAt(t, fmt.Sprintf("%s/s%d", keypartData(t), shards), shards, coordCfg)
}

func newFleetAt(t *testing.T, root string, shards int, coordCfg service.CoordinatorConfig) *fleet {
	t.Helper()
	var endpoints []string
	for k := 0; k < shards; k++ {
		db, err := matstore.Open(fmt.Sprintf("%s/shard-%03d", root, k),
			matstore.Options{Exec: core.Options{ChunkSize: 1024}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		srv := service.New(db, service.Config{WorkerBudget: 2, MaxConcurrent: 4})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		endpoints = append(endpoints, ts.URL)
	}
	coord, err := service.NewCoordinator(root, endpoints, coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return &fleet{Coord: coord, URL: ts.URL}
}

// singleEngine serves the un-sharded shared dataset — the differential
// reference.
func singleEngine(t *testing.T) string {
	t.Helper()
	srv := newServer(t, service.Config{WorkerBudget: 2, MaxConcurrent: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCoordinatorDifferential is the tentpole acceptance suite: a mixed
// request set (selections across strategies, SUM/AVG/COUNT aggregations,
// joins against the replicated inner table, replicated-projection queries,
// limit pushdown) through coordinators at shard counts {1,2,4}, each
// request at parallelism {1,4}, versus the single-process engine. Rows, row
// order, row counts and checksums must match exactly.
func TestCoordinatorDifferential(t *testing.T) {
	single := singleEngine(t)
	type req struct {
		name string
		path string
		body string // %d is the parallelism slot
	}
	reqs := []req{
		{"sel-lm", "/query", `{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<400","linenum<7"],"strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"sel-em", "/query", `{"projection":"lineitem","output":["shipdate","quantity"],"where":["shipdate<1200"],"strategy":"em-pipelined","parallelism":%d,"limit":-1}`},
		{"sel-limit", "/query", `{"projection":"lineitem","output":["shipdate"],"where":["shipdate<2000"],"strategy":"lm-parallel","parallelism":%d,"limit":7}`},
		{"agg-sum", "/query", `{"projection":"lineitem","groupby":"returnflag","aggcol":"quantity","agg":"sum","strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"agg-avg", "/query", `{"projection":"lineitem","groupby":"returnflag","aggcol":"quantity","agg":"avg","where":["shipdate<1500"],"strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"agg-count", "/query", `{"projection":"lineitem","groupby":"linenum","aggcol":"quantity","agg":"count","strategy":"em-parallel","parallelism":%d,"limit":-1}`},
		{"agg-min", "/query", `{"projection":"orders","groupby":"custkey","aggcol":"shipdate","agg":"min","where":["custkey<40"],"strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"replicated", "/query", `{"projection":"customer","output":["custkey","nationcode"],"where":["custkey<25"],"strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"join", "/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<100"],"rightstrategy":"right-materialized","parallelism":%d,"limit":-1}`},
		{"join-limit", "/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"rightstrategy":"right-multicolumn","parallelism":%d,"limit":9}`},
	}
	for _, shards := range []int{1, 2, 4} {
		fl := newFleet(t, shards, service.CoordinatorConfig{})
		for _, r := range reqs {
			for _, par := range []int{1, 4} {
				body := fmt.Sprintf(r.body, par)
				var want, got service.QueryResponse
				postJSON(t, single+r.path, body, &want)
				postJSON(t, fl.URL+r.path, body, &got)
				label := fmt.Sprintf("shards=%d par=%d %s", shards, par, r.name)
				if !reflect.DeepEqual(got.Columns, want.Columns) {
					t.Errorf("%s: columns %v, want %v", label, got.Columns, want.Columns)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s: rows differ (%d vs %d shown)", label, len(got.Rows), len(want.Rows))
				}
				if got.RowCount != want.RowCount || got.Checksum != want.Checksum {
					t.Errorf("%s: rows/checksum %d/%d, want %d/%d",
						label, got.RowCount, got.Checksum, want.RowCount, want.Checksum)
				}
			}
		}
	}
}

// TestCoordinatorExplain: explain fans out and concatenates per-shard trees
// under global row-range headers; single-shard layouts pass through.
func TestCoordinatorExplain(t *testing.T) {
	fl := newFleet(t, 2, service.CoordinatorConfig{})
	var ex service.ExplainResponse
	postJSON(t, fl.URL+"/explain",
		`{"projection":"lineitem","output":["shipdate"],"where":["shipdate<400"],"strategy":"lm-parallel"}`, &ex)
	if !strings.Contains(ex.Tree, "shard 0") || !strings.Contains(ex.Tree, "shard 1") {
		t.Errorf("fanned explain tree lacks shard headers:\n%s", ex.Tree)
	}
	if !strings.Contains(ex.Tree, "rows [0,") {
		t.Errorf("explain tree lacks global row ranges:\n%s", ex.Tree)
	}
	if ex.ModeledUS <= 0 || ex.Strategy == "" {
		t.Errorf("merged explain missing modeled cost or strategy: %+v", ex)
	}
	// Join explain routes by the outer table (sharded → fan out).
	var jex service.ExplainResponse
	postJSON(t, fl.URL+"/explain",
		`{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"rightstrategy":"right-materialized"}`, &jex)
	if !strings.Contains(jex.Tree, "shard 1") {
		t.Errorf("join explain did not fan out:\n%s", jex.Tree)
	}

	// Key-partitioned projections label each shard with its hash scheme
	// instead of a row range.
	kfl := newKeypartFleet(t, 2, service.CoordinatorConfig{})
	var kex service.ExplainResponse
	postJSON(t, kfl.URL+"/explain",
		`{"projection":"orders","output":["custkey"],"where":["custkey<100"],"strategy":"lm-parallel"}`, &kex)
	if !strings.Contains(kex.Tree, "hash(custkey) mod 2 == 1") {
		t.Errorf("key-partitioned explain lacks hash-scheme headers:\n%s", kex.Tree)
	}
}

// TestCoordinatorPruning: a predicate refuted by a shard's min/max
// statistics prunes that shard from the fan-out (the sort column's value
// ranges barely overlap across shards), with results still exact.
func TestCoordinatorPruning(t *testing.T) {
	single := singleEngine(t)
	fl := newFleet(t, 2, service.CoordinatorConfig{})
	// lineitem is sorted by returnflag, so shard 1's returnflag min exceeds
	// a tight low-range predicate's upper bound: returnflag<1 prunes shard 1
	// (shard 0 spans flags [0,1], shard 1 flags [1,2]).
	m := fl.Coord.Manifest()
	pl, _ := m.Placement(tpch.LineitemProj)
	if !pl.Sharded || pl.Ranges[1].Len() == 0 {
		t.Skip("layout did not shard lineitem into two populated shards")
	}
	body := `{"projection":"lineitem","output":["shipdate","linenum"],"where":["returnflag<1"],"strategy":"lm-parallel","limit":-1}`
	var want, got service.QueryResponse
	postJSON(t, single+"/query", body, &want)
	postJSON(t, fl.URL+"/query", body, &got)
	if !reflect.DeepEqual(got.Rows, want.Rows) || got.Checksum != want.Checksum {
		t.Errorf("pruned query differs: %d/%d rows, checksum %d/%d",
			len(got.Rows), len(want.Rows), got.Checksum, want.Checksum)
	}
	var st service.CoordinatorStats
	getJSON(t, fl.URL+"/stats", &st)
	if st.PrunedShards == 0 {
		t.Error("low-range predicate pruned no shards")
	}
	if st.ShardRequests == 0 || st.Queries == 0 {
		t.Errorf("fan-out counters not accounted: %+v", st)
	}
}

// TestCoordinatorStatsAndReady: /stats aggregates shard snapshots and
// /readyz requires every shard ready.
func TestCoordinatorStatsAndReady(t *testing.T) {
	fl := newFleet(t, 2, service.CoordinatorConfig{})
	var q service.QueryResponse
	postJSON(t, fl.URL+"/query",
		`{"projection":"lineitem","output":["shipdate"],"where":["shipdate<400"],"limit":-1}`, &q)

	var st service.CoordinatorStats
	getJSON(t, fl.URL+"/stats", &st)
	if st.NumShards != 2 || len(st.Shards) != 2 {
		t.Fatalf("stats shards = %d/%d", st.NumShards, len(st.Shards))
	}
	queries, ok := st.ShardTotals["queries"].(float64)
	if !ok || queries < 1 {
		t.Errorf("shard totals did not sum queries: %v", st.ShardTotals["queries"])
	}
	if st.FannedOut+st.RoutedSingle == 0 {
		t.Error("no routing recorded")
	}

	resp, err := http.Get(fl.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz = %d with all shards up", resp.StatusCode)
	}
}

// TestCoordinatorShardFailures: per-shard timeouts map to 504, refused
// connections to 502, and a shedding shard's 503 propagates with the
// largest Retry-After.
func TestCoordinatorShardFailures(t *testing.T) {
	root := fmt.Sprintf("%s/s2", shardedData(t))

	// Stub shards: 0 sheds with Retry-After 3, 1 sheds with Retry-After 7.
	shed := func(after string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", after)
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"shed"}`)
		}))
	}
	s0, s1 := shed("3"), shed("7")
	defer s0.Close()
	defer s1.Close()
	coord, err := service.NewCoordinator(root, []string{s0.URL, s1.URL}, service.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	body := `{"projection":"lineitem","output":["shipdate"],"where":["shipdate<3000"],"limit":-1}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "7" {
		t.Errorf("shedding shards: HTTP %d Retry-After %q, want 503 with 7",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Slow shard past the fan-out timeout: 504.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		fmt.Fprint(w, `{}`)
	}))
	defer slow.Close()
	coord2, err := service.NewCoordinator(root, []string{slow.URL, slow.URL}, service.CoordinatorConfig{ShardTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(coord2.Handler())
	defer ts2.Close()
	resp2, err := http.Post(ts2.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("slow shards: HTTP %d, want 504", resp2.StatusCode)
	}

	// Dead shard: 502.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	coord3, err := service.NewCoordinator(root, []string{deadURL, deadURL}, service.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(coord3.Handler())
	defer ts3.Close()
	resp3, err := http.Post(ts3.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadGateway {
		t.Errorf("dead shards: HTTP %d, want 502", resp3.StatusCode)
	}

	// A failed shard beside a slow one: the failure cancels its sibling, so
	// the reply is the failed shard's 500 at once, not after the slow shard
	// (or its 30 s timeout), and the cancelled call leaves nothing running.
	before := runtime.NumGoroutine()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":"broken shard"}`)
	}))
	defer broken.Close()
	sleepy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // the server watches for a hang-up only once the body is read
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
		fmt.Fprint(w, `{}`)
	}))
	defer sleepy.Close()
	for _, eps := range [][]string{{broken.URL, sleepy.URL}, {sleepy.URL, broken.URL}} {
		coord4, err := service.NewCoordinator(root, eps, service.CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ts4 := httptest.NewServer(coord4.Handler())
		start := time.Now()
		resp4, err := http.Post(ts4.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp4.Body)
		resp4.Body.Close()
		ts4.Close()
		if resp4.StatusCode != http.StatusInternalServerError || !strings.Contains(string(reply), "broken shard") {
			t.Errorf("failed + slow shard: HTTP %d %s, want the failed shard's 500", resp4.StatusCode, reply)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("failed + slow shard: reply took %v, want well under 1s (the sibling was not cancelled)", took)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines did not settle after the cancelled fan-out: %d, started with %d", n, before)
	}
}

// TestCoordinatorRejectsGarbagePartial: a shard that answers 200 with a
// partial that is not one — a data byte changed, the data cut short, the
// wrong Content-Type, more columns than arrays, arrays shorter than the rows
// shown, bytes after the last array (under a checksum that covers them) — gets
// a 502 naming it, never a wrong answer; the coordinator serves the next
// request, and nothing is left running.
func TestCoordinatorRejectsGarbagePartial(t *testing.T) {
	root := fmt.Sprintf("%s/s2", shardedData(t))
	engine := func(k int) http.Handler {
		db, err := matstore.Open(fmt.Sprintf("%s/shard-%03d", root, k), matstore.Options{Exec: core.Options{ChunkSize: 1024}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return service.New(db, service.Config{WorkerBudget: 2, MaxConcurrent: 4}).Handler()
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	shown := regexp.MustCompile(`"shown":(\d+)`)
	sum := regexp.MustCompile(`"crc32c":\d+`)
	type spoiler func(ct string, head, data []byte) (string, []byte)
	cases := []struct {
		name  string
		spoil spoiler
	}{
		{"a data byte changed", func(ct string, head, data []byte) (string, []byte) {
			i := bytes.IndexAny(data, "123456789")
			data[i] = '0' + (data[i]-'0')%9 + 1
			return ct, append(head, data...)
		}},
		{"data cut short", func(ct string, head, data []byte) (string, []byte) {
			return ct, append(head, data[:len(data)/2]...)
		}},
		{"wrong content type", func(_ string, head, data []byte) (string, []byte) {
			return "application/json", append(head, data...)
		}},
		{"more columns than arrays", func(ct string, head, data []byte) (string, []byte) {
			head = bytes.Replace(head, []byte(`"linenum"]`), []byte(`"linenum","quantity"]`), 1)
			return ct, append(head, data...)
		}},
		{"arrays shorter than the rows shown", func(ct string, head, data []byte) (string, []byte) {
			n, _ := strconv.Atoi(string(shown.FindSubmatch(head)[1]))
			head = shown.ReplaceAll(head, []byte(`"shown":`+strconv.Itoa(n+1)))
			return ct, append(head, data...)
		}},
		{"bytes after the last array", func(ct string, head, data []byte) (string, []byte) {
			data = append(data, "[7]\n"...)
			head = sum.ReplaceAll(head, []byte(`"crc32c":`+strconv.FormatUint(uint64(crc32.Checksum(data, castagnoli)), 10)))
			return ct, append(head, data...)
		}},
	}
	var spoil atomic.Pointer[spoiler]
	shard1 := engine(1)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		shard1.ServeHTTP(rec, r)
		ct, body := rec.Header().Get("Content-Type"), rec.Body.Bytes()
		if f := spoil.Load(); f != nil && rec.Code == http.StatusOK {
			end := bytes.IndexByte(body, '\n') + 1
			ct, body = (*f)(ct, append([]byte(nil), body[:end]...), append([]byte(nil), body[end:]...))
		}
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer stub.Close()
	shard0 := httptest.NewServer(engine(0))
	defer shard0.Close()
	coord, err := service.NewCoordinator(root, []string{shard0.URL, stub.URL}, service.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	single := singleEngine(t)
	body := `{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<999999"],"strategy":"lm-parallel","limit":-1}`
	var want service.QueryResponse
	postJSON(t, single+"/query", body, &want)
	before := runtime.NumGoroutine()
	for _, c := range cases {
		spoil.Store(&c.spoil)
		status, _, raw := postRaw(t, ts.URL+"/query", body)
		if status != http.StatusBadGateway || !strings.Contains(string(raw), "shard 1") {
			t.Errorf("%s: HTTP %d %s, want a 502 naming shard 1", c.name, status, raw)
		}
		spoil.Store(nil)
		var got service.QueryResponse
		postJSON(t, ts.URL+"/query", body, &got)
		if !reflect.DeepEqual(got.Rows, want.Rows) || got.RowCount != want.RowCount || got.Checksum != want.Checksum {
			t.Errorf("%s: the next request was answered wrongly (%d rows, checksum %d; want %d, %d)",
				c.name, got.RowCount, got.Checksum, want.RowCount, want.Checksum)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines did not settle after the refused partials: %d, started with %d", n, before)
	}
}

// TestCoordinatorRejectsShardedRightJoin: a join whose inner table is
// sharded (here: lineitem as the right side) is a 400 up front — shard-local
// joins need a replicated inner table.
func TestCoordinatorRejectsShardedRightJoin(t *testing.T) {
	fl := newFleet(t, 2, service.CoordinatorConfig{})
	body := `{"left":"orders","right":"lineitem","leftkey":"custkey","rightkey":"linenum","leftout":["shipdate"],"rightout":["quantity"]}`
	resp, err := http.Post(fl.URL+"/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sharded-right join: HTTP %d, want 400", resp.StatusCode)
	}
	var e map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&e)
	if !strings.Contains(e["error"], "replicated") {
		t.Errorf("error %q does not explain the replication requirement", e["error"])
	}
}

// TestCoordinatorKeyPartitionedDifferential is the key-partitioned half of
// the tentpole acceptance suite: selections merged back into global row
// order by row id, co-partitioned joins running shard-local with NO inner
// replication, partition-key aggregations merged from finalized shard rows,
// and non-partition-key aggregations still taking the statistics wire — all
// byte-identical to the single-process engine at shard counts {1,2,4} ×
// parallelism {1,4}, over a mixed layout (lineitem stays range-sharded).
func TestCoordinatorKeyPartitionedDifferential(t *testing.T) {
	single := singleEngine(t)
	type req struct {
		name string
		path string
		body string // %d is the parallelism slot
	}
	reqs := []req{
		{"sel-orders", "/query", `{"projection":"orders","output":["custkey","shipdate"],"where":["custkey<100"],"strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"sel-orders-em", "/query", `{"projection":"orders","output":["shipdate"],"where":["shipdate<1500"],"strategy":"em-pipelined","parallelism":%d,"limit":-1}`},
		{"sel-limit", "/query", `{"projection":"orders","output":["custkey","shipdate"],"where":["custkey<200"],"strategy":"lm-parallel","parallelism":%d,"limit":7}`},
		{"sel-customer", "/query", `{"projection":"customer","output":["custkey","nationcode"],"where":["custkey<50"],"strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"sel-lineitem-range", "/query", `{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<400"],"strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"agg-finalized-min", "/query", `{"projection":"orders","groupby":"custkey","aggcol":"shipdate","agg":"min","strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"agg-finalized-sum", "/query", `{"projection":"orders","groupby":"custkey","aggcol":"shipdate","agg":"sum","where":["shipdate<1500"],"strategy":"lm-parallel","parallelism":%d,"limit":-1}`},
		{"agg-finalized-limit", "/query", `{"projection":"orders","groupby":"custkey","aggcol":"shipdate","agg":"avg","parallelism":%d,"limit":11}`},
		{"agg-stats-wire", "/query", `{"projection":"orders","groupby":"shipdate","aggcol":"custkey","agg":"count","where":["shipdate<600"],"parallelism":%d,"limit":-1}`},
		{"join-copart", "/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<120"],"rightstrategy":"right-materialized","parallelism":%d,"limit":-1}`},
		{"join-copart-limit", "/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"rightstrategy":"right-multicolumn","parallelism":%d,"limit":9}`},
	}
	for _, shards := range []int{1, 2, 4} {
		fl := newKeypartFleet(t, shards, service.CoordinatorConfig{})
		for _, r := range reqs {
			for _, par := range []int{1, 4} {
				body := fmt.Sprintf(r.body, par)
				var want, got service.QueryResponse
				postJSON(t, single+r.path, body, &want)
				postJSON(t, fl.URL+r.path, body, &got)
				label := fmt.Sprintf("keypart shards=%d par=%d %s", shards, par, r.name)
				if !reflect.DeepEqual(got.Columns, want.Columns) {
					t.Errorf("%s: columns %v, want %v", label, got.Columns, want.Columns)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s: rows differ (%d vs %d shown)", label, len(got.Rows), len(want.Rows))
				}
				if got.RowCount != want.RowCount || got.Checksum != want.Checksum {
					t.Errorf("%s: rows/checksum %d/%d, want %d/%d",
						label, got.RowCount, got.Checksum, want.RowCount, want.Checksum)
				}
			}
		}
		// Multi-shard fleets must have exercised every key-partitioned merge
		// path: row-id merges, finalized-aggregation pushdowns, and
		// co-partitioned joins with no inner replication.
		if shards > 1 {
			var st service.CoordinatorStats
			getJSON(t, fl.URL+"/stats", &st)
			if st.RowIDMerges == 0 {
				t.Errorf("shards=%d: no row-id merges recorded", shards)
			}
			if st.FinalizedAggs == 0 {
				t.Errorf("shards=%d: no finalized aggregation pushdowns recorded", shards)
			}
			if st.CopartJoins == 0 {
				t.Errorf("shards=%d: no co-partitioned joins recorded", shards)
			}
			if st.AggMerges == 0 {
				t.Errorf("shards=%d: non-partition-key aggregation skipped the statistics wire", shards)
			}
		}
	}
}

// TestCoordinatorCopartitionErrors: a sharded right side without compatible
// partitioning is a 400 whose message names the offending projection, its
// actual partitioning, and the join key it would need.
func TestCoordinatorCopartitionErrors(t *testing.T) {
	fl := newKeypartFleet(t, 2, service.CoordinatorConfig{})
	post400 := func(t *testing.T, body string) string {
		t.Helper()
		resp, err := http.Post(fl.URL+"/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("incompatible join: HTTP %d, want 400", resp.StatusCode)
		}
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return e["error"]
	}
	t.Run("range-sharded right", func(t *testing.T) {
		// lineitem is range-sharded in the mixed layout: not co-partitionable.
		msg := post400(t, `{"left":"orders","right":"lineitem","leftkey":"custkey","rightkey":"linenum","leftout":["shipdate"],"rightout":["quantity"]}`)
		for _, wantSub := range []string{`"lineitem"`, "range-sharded", "replicated", "-partition-key"} {
			if !strings.Contains(msg, wantSub) {
				t.Errorf("error %q does not mention %q", msg, wantSub)
			}
		}
	})
	t.Run("partitioned on the wrong column", func(t *testing.T) {
		// Both sides are partitioned, but the left joins on shipdate while its
		// partition key is custkey: the message must name the mismatch.
		msg := post400(t, `{"left":"orders","right":"customer","leftkey":"shipdate","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"]}`)
		if !strings.Contains(msg, `partitioned on "custkey", not its join key "shipdate"`) {
			t.Errorf("error %q does not name the partition-column mismatch", msg)
		}
	})
}

// TestCoordinatorKeyPartitionedAllPruned: a predicate below every shard's
// key minimum prunes ALL shards of a key-partitioned projection; the
// coordinator still answers with a well-formed empty response via a
// single-shard passthrough, so fanned_out stays 0.
func TestCoordinatorKeyPartitionedAllPruned(t *testing.T) {
	fl := newKeypartFleet(t, 2, service.CoordinatorConfig{})
	var got service.QueryResponse
	postJSON(t, fl.URL+"/query",
		`{"projection":"orders","output":["custkey","shipdate"],"where":["custkey<0"],"strategy":"lm-parallel","limit":-1}`, &got)
	if len(got.Rows) != 0 || got.RowCount != 0 || got.Checksum != 0 {
		t.Errorf("all-pruned query not empty: %d rows shown, count %d, checksum %d",
			len(got.Rows), got.RowCount, got.Checksum)
	}
	if !reflect.DeepEqual(got.Columns, []string{"custkey", "shipdate"}) {
		t.Errorf("all-pruned response lost its columns: %v", got.Columns)
	}
	var st service.CoordinatorStats
	getJSON(t, fl.URL+"/stats", &st)
	if st.PrunedShards < 2 {
		t.Errorf("pruned_shards = %d, want both shards pruned", st.PrunedShards)
	}
	if st.FannedOut != 0 {
		t.Errorf("fanned_out = %d after a fully-pruned query, want 0", st.FannedOut)
	}
	if st.RoutedSingle == 0 {
		t.Error("fully-pruned query did not route to a fallback shard")
	}
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}
