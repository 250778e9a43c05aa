package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"matstore"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Key-partitioning benchmarks: each pair runs the SAME request against the same rows
// under two layouts, so the deltas isolate what co-partitioning buys.
//
//   - JoinFanoutReplicated vs JoinFanoutCopartitioned: a fanned-out join
//     whose inner table is replicated builds the FULL customer hash table on
//     every shard (N× build tuples, N× build bytes/allocs); co-partitioned
//     on custkey, each shard builds only its 1/N key slice, so the summed
//     build_tuples metric drops back to 1× at every shard count.
//   - AggMergeStats vs AggMergeFinalized: a custkey group-by over
//     range-sharded orders ships every shard's full per-group statistics
//     (~all groups appear on every shard) for an AbsorbGroups pass;
//     partitioned on custkey the groups are disjoint, shards ship finalized
//     rows, and the summed shard response payload (shard_resp_bytes)
//     shrinks with no statistics wire at all.
//
// Build caches are disabled on both sides of each pair so every operation
// pays its layout's true build cost rather than the first iteration's.

var (
	kpBenchOnce sync.Once
	kpBenchRoot string
	kpBenchErr  error
)

// keypartBenchData generates the co-partitioned counterpart of coordData:
// same generator config, orders and customer hash-partitioned on custkey.
func keypartBenchData(b *testing.B) string {
	b.Helper()
	kpBenchOnce.Do(func() {
		kpBenchRoot, kpBenchErr = os.MkdirTemp("", "matstore-bench-keypart")
		if kpBenchErr != nil {
			return
		}
		layout := tpch.ShardLayout{PartitionKeys: map[string]string{
			tpch.OrdersProj:   tpch.ColCustkey,
			tpch.CustomerProj: tpch.ColCustkey,
		}}
		for _, n := range []int{1, 2, 4} {
			dir := fmt.Sprintf("%s/s%d", kpBenchRoot, n)
			if kpBenchErr = os.MkdirAll(dir, 0o755); kpBenchErr != nil {
				return
			}
			if _, kpBenchErr = tpch.GenerateShardedLayout(dir, tpch.Config{Scale: 0.002, Seed: 7}, n, layout); kpBenchErr != nil {
				return
			}
		}
	})
	if kpBenchErr != nil {
		b.Fatal(kpBenchErr)
	}
	return kpBenchRoot
}

// countingTransport counts shard response body bytes — the coordinator's
// actual merge payload, statistics wire included.
type countingTransport struct {
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	t.bytes.Add(int64(len(raw)))
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp, nil
}

// pairedFleet boots shard engines (build and result caches off, so repeated
// joins rebuild) under root/s<shards> plus a coordinator whose shard client
// counts merge payload bytes.
func pairedFleet(b *testing.B, root string, shards int) (string, *countingTransport) {
	b.Helper()
	dir := fmt.Sprintf("%s/s%d", root, shards)
	var endpoints []string
	for k := 0; k < shards; k++ {
		db, err := matstore.Open(fmt.Sprintf("%s/shard-%03d", dir, k))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		srv := service.New(db, service.Config{
			WorkerBudget: 2, MaxConcurrent: 8,
			ResultCacheBytes: -1, BuildCacheBytes: -1,
		})
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		endpoints = append(endpoints, ts.URL)
	}
	ct := &countingTransport{}
	coord, err := service.NewCoordinator(dir, endpoints, service.CoordinatorConfig{
		Client: &http.Client{Transport: ct},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	b.Cleanup(ts.Close)
	return ts.URL, ct
}

const (
	// The paired join: orders ⋈ customer on custkey. Replicated layouts build
	// the full customer table per shard; co-partitioned layouts build 1/N.
	kpJoinBody = `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"rightstrategy":"right-materialized","parallelism":2,"limit":-1}`
	// The paired aggregation: custkey group-by over orders. Range-sharded it
	// takes the statistics wire; custkey-partitioned it finalizes on-shard.
	kpAggBody = `{"projection":"orders","groupby":"custkey","aggcol":"shipdate","agg":"min","parallelism":2,"limit":-1}`
)

// postDecode POSTs and decodes the merged response for its counters.
func postDecode(b *testing.B, url, body string) *service.QueryResponse {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	out := new(service.QueryResponse)
	if err := json.Unmarshal(raw, out); err != nil {
		b.Fatal(err)
	}
	return out
}

// runJoinFanout reports ns/op plus build_tuples, the summed right-side hash
// build size across shards — N× the customer table when replicated, 1× when
// co-partitioned.
func runJoinFanout(b *testing.B, root string, shards int) {
	url, _ := pairedFleet(b, root, shards)
	b.ReportAllocs()
	b.ResetTimer()
	var built int64
	for i := 0; i < b.N; i++ {
		built += postDecode(b, url+"/join", kpJoinBody).BuildTuples
	}
	b.ReportMetric(float64(built)/float64(b.N), "build_tuples")
}

func BenchmarkJoinFanoutReplicated1Shard(b *testing.B) { runJoinFanout(b, coordData(b), 1) }
func BenchmarkJoinFanoutReplicated2Shard(b *testing.B) { runJoinFanout(b, coordData(b), 2) }
func BenchmarkJoinFanoutReplicated4Shard(b *testing.B) { runJoinFanout(b, coordData(b), 4) }

func BenchmarkJoinFanoutCopartitioned1Shard(b *testing.B) { runJoinFanout(b, keypartBenchData(b), 1) }
func BenchmarkJoinFanoutCopartitioned2Shard(b *testing.B) { runJoinFanout(b, keypartBenchData(b), 2) }
func BenchmarkJoinFanoutCopartitioned4Shard(b *testing.B) { runJoinFanout(b, keypartBenchData(b), 4) }

// runAggMerge reports ns/op plus shard_resp_bytes, the summed shard response
// payload the coordinator merges per operation — per-group statistics from
// every shard on the range layout, disjoint finalized rows on the
// partitioned one.
func runAggMerge(b *testing.B, root string, shards int) {
	url, ct := pairedFleet(b, root, shards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postDecode(b, url+"/query", kpAggBody)
	}
	b.ReportMetric(float64(ct.bytes.Load())/float64(b.N), "shard_resp_bytes")
}

func BenchmarkAggMergeStats1Shard(b *testing.B) { runAggMerge(b, coordData(b), 1) }
func BenchmarkAggMergeStats2Shard(b *testing.B) { runAggMerge(b, coordData(b), 2) }
func BenchmarkAggMergeStats4Shard(b *testing.B) { runAggMerge(b, coordData(b), 4) }

func BenchmarkAggMergeFinalized1Shard(b *testing.B) { runAggMerge(b, keypartBenchData(b), 1) }
func BenchmarkAggMergeFinalized2Shard(b *testing.B) { runAggMerge(b, keypartBenchData(b), 2) }
func BenchmarkAggMergeFinalized4Shard(b *testing.B) { runAggMerge(b, keypartBenchData(b), 4) }
