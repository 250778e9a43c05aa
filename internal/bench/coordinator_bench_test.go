package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"matstore"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Coordinator-overhead benchmarks: the Direct/1Shard pair isolates what the scatter-gather
// hop costs over executing in-process behind the same HTTP surface (one
// extra request round-trip plus partial-merge bookkeeping at identical
// work), and the closed-loop sweep at shard counts {1,2,4} reports
// mixed-workload tail latency as the same dataset spreads over more
// engines.

var (
	coordOnce sync.Once
	coordRoot string
	coordErr  error
)

// coordData generates one sharded layout per benchmarked shard count from
// the same generator config as the bench env dataset.
func coordData(b *testing.B) string {
	b.Helper()
	coordOnce.Do(func() {
		coordRoot, coordErr = os.MkdirTemp("", "matstore-bench-coord")
		if coordErr != nil {
			return
		}
		for _, n := range []int{1, 2, 4} {
			dir := fmt.Sprintf("%s/s%d", coordRoot, n)
			if coordErr = os.MkdirAll(dir, 0o755); coordErr != nil {
				return
			}
			if _, coordErr = tpch.GenerateSharded(dir, tpch.Config{Scale: 0.002, Seed: 7}, n); coordErr != nil {
				return
			}
		}
	})
	if coordErr != nil {
		b.Fatal(coordErr)
	}
	return coordRoot
}

// benchFleet boots one engine per shard behind httptest plus a coordinator
// fronting them, and returns the coordinator's base URL.
func benchFleet(b *testing.B, shards int) string {
	b.Helper()
	root := fmt.Sprintf("%s/s%d", coordData(b), shards)
	var endpoints []string
	for k := 0; k < shards; k++ {
		db, err := matstore.Open(fmt.Sprintf("%s/shard-%03d", root, k))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		// Result cache off so every request exercises the fan-out path.
		srv := service.New(db, service.Config{WorkerBudget: 2, MaxConcurrent: 8, ResultCacheBytes: -1})
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		endpoints = append(endpoints, ts.URL)
	}
	coord, err := service.NewCoordinator(root, endpoints, service.CoordinatorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	b.Cleanup(ts.Close)
	return ts.URL
}

// benchDirect serves the 1-shard directory from a single engine — the
// no-coordinator baseline over the identical data and HTTP surface.
func benchDirect(b *testing.B) string {
	b.Helper()
	db, err := matstore.Open(fmt.Sprintf("%s/s1/shard-000", coordData(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	srv := service.New(db, service.Config{WorkerBudget: 2, MaxConcurrent: 8, ResultCacheBytes: -1})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts.URL
}

const coordBenchQuery = `{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<400","linenum<7"],"strategy":"lm-parallel","parallelism":2,"limit":-1}`

// coordBenchBodies is the closed-loop mix: a selection, an aggregation
// (GroupStats merge path) and a join against the replicated inner table.
var coordBenchBodies = []struct{ path, body string }{
	{"/query", coordBenchQuery},
	{"/query", `{"projection":"lineitem","groupby":"returnflag","aggcol":"quantity","agg":"avg","where":["shipdate<1500"],"strategy":"lm-parallel","parallelism":2,"limit":-1}`},
	{"/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<150"],"rightstrategy":"right-materialized","parallelism":2,"limit":-1}`},
}

func coordPost(b *testing.B, url, body string) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		b.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
}

// BenchmarkCoordinatorOverheadDirect: the reference — one engine executing
// the selection in-process behind HTTP, no coordinator in the path.
func BenchmarkCoordinatorOverheadDirect(b *testing.B) {
	url := benchDirect(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coordPost(b, url+"/query", coordBenchQuery)
	}
}

// BenchmarkCoordinatorOverhead1Shard: the same selection through a 1-shard
// coordinator — the pure scatter-gather hop cost (one fan-out request,
// merge of one partial) at identical execution work.
func BenchmarkCoordinatorOverhead1Shard(b *testing.B) {
	url := benchFleet(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coordPost(b, url+"/query", coordBenchQuery)
	}
}

// runCoordClosedLoop drives 8 client goroutines × 4 rounds of the mix
// through the coordinator and reports latency percentiles alongside ns/op.
func runCoordClosedLoop(b *testing.B, shards int) {
	url := benchFleet(b, shards)
	const clients, rounds = 8, 4
	b.ReportAllocs()
	b.ResetTimer()
	var lats []time.Duration
	for i := 0; i < b.N; i++ {
		all := make([][]time.Duration, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for _, req := range coordBenchBodies {
						t0 := time.Now()
						coordPost(b, url+req.path, req.body)
						all[c] = append(all[c], time.Since(t0))
					}
				}
			}(c)
		}
		wg.Wait()
		lats = lats[:0]
		for _, l := range all {
			lats = append(lats, l...)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		return float64(lats[int(p*float64(len(lats)-1))].Microseconds())
	}
	b.ReportMetric(pct(0.50), "p50_us")
	b.ReportMetric(pct(0.95), "p95_us")
	b.ReportMetric(pct(0.99), "p99_us")
}

// BenchmarkCoordinatorClosedLoop{1,2,4}Shard: the mixed workload through
// coordinators over 1, 2 and 4 shard engines — how fan-out width moves the
// tail when the same rows spread over more engines.
func BenchmarkCoordinatorClosedLoop1Shard(b *testing.B) { runCoordClosedLoop(b, 1) }
func BenchmarkCoordinatorClosedLoop2Shard(b *testing.B) { runCoordClosedLoop(b, 2) }
func BenchmarkCoordinatorClosedLoop4Shard(b *testing.B) { runCoordClosedLoop(b, 4) }
