package bench

import (
	"context"
	"os"
	"testing"

	"matstore"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Server-path benchmarks: the cold vs cached join build isolates what the shared
// build cache saves per query, the result-cache pair isolates what serving a
// repeated query from cached bytes saves over re-executing it, and the
// closed-loop benchmarks measure mixed-workload throughput and tail latency
// under 8 concurrent sessions on one worker budget, with and without the
// result cache absorbing repeats.

func benchServerCfg(b *testing.B, cfg service.Config) *service.Server {
	b.Helper()
	envOnce.Do(func() {
		envDir, envErr = os.MkdirTemp("", "matstore-bench-test")
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	// Reuse the test env's generated dataset (Setup is idempotent).
	e, err := Setup(envDir, 0.002, 7)
	if err != nil {
		b.Fatal(err)
	}
	e.Close()
	db, err := matstore.Open(envDir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return service.New(db, cfg)
}

func benchServer(b *testing.B, caches bool) *service.Server {
	cfg := service.Config{WorkerBudget: 2, MaxConcurrent: 8}
	if !caches {
		cfg.BuildCacheBytes = -1
		cfg.PlanCacheEntries = -1
		cfg.ResultCacheBytes = -1
	} else {
		// The execution-cache benchmarks measure plan/build reuse; the result
		// cache would short-circuit the very execution being measured.
		cfg.ResultCacheBytes = -1
	}
	return benchServerCfg(b, cfg)
}

func benchJoin() matstore.JoinQuery {
	return matstore.JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    matstore.LessThan(150),
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
	}
}

// BenchmarkServerJoinBuildCold: every join rebuilds the partitioned hash
// side (caches disabled) — the no-sharing baseline.
func BenchmarkServerJoinBuildCold(b *testing.B) {
	srv := benchServer(b, false)
	sess := srv.NewSession()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, benchJoin(), matstore.RightMaterialized); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerJoinBuildCached: the same join through the shared build
// and plan caches — after the first iteration every probe reuses the
// retained hash side.
func BenchmarkServerJoinBuildCached(b *testing.B) {
	srv := benchServer(b, true)
	sess := srv.NewSession()
	ctx := context.Background()
	if _, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, benchJoin(), matstore.RightMaterialized); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, benchJoin(), matstore.RightMaterialized)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Info.BuildCacheHit {
			b.Fatal("cached join missed the build cache")
		}
	}
}

// BenchmarkServerResultCacheHit: the same join answered from the result
// cache — no admission, no workers, no probe.
func BenchmarkServerResultCacheHit(b *testing.B) {
	srv := benchServerCfg(b, service.Config{WorkerBudget: 2, MaxConcurrent: 8})
	sess := srv.NewSession()
	ctx := context.Background()
	if _, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, benchJoin(), matstore.RightMaterialized); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, benchJoin(), matstore.RightMaterialized)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Info.ResultCacheHit {
			b.Fatal("repeated join missed the result cache")
		}
	}
}

// runClosedLoopBench drives 8 sessions × 2 rounds of the mix and reports
// tail latency alongside ns/op.
func runClosedLoopBench(b *testing.B, srv *service.Server) {
	reqs := MixedWorkload(300)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var last WorkloadStats
	for i := 0; i < b.N; i++ {
		stats, err := RunClosedLoop(ctx, srv, 8, 2, reqs)
		if err != nil {
			b.Fatal(err)
		}
		last = stats
	}
	b.ReportMetric(float64(last.P50.Microseconds()), "p50_us")
	b.ReportMetric(float64(last.P95.Microseconds()), "p95_us")
	b.ReportMetric(float64(last.P99.Microseconds()), "p99_us")
}

// BenchmarkServerClosedLoopMiss: closed-loop mixed workload with the result
// cache disabled — every repeat re-executes (the admission-bound baseline).
func BenchmarkServerClosedLoopMiss(b *testing.B) {
	runClosedLoopBench(b, benchServer(b, true))
}

// BenchmarkServerClosedLoopHit: the same closed loop with the result cache
// on — after the first pass over the mix, repeats are served from cached
// bytes without admission.
func BenchmarkServerClosedLoopHit(b *testing.B) {
	runClosedLoopBench(b, benchServerCfg(b, service.Config{WorkerBudget: 2, MaxConcurrent: 8}))
}
