package bench

import (
	"context"
	"testing"

	"matstore"
	"matstore/internal/obs"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Paired tracing-overhead benchmarks:
// the same selection through the session path with tracing off (the default
// — SpanFromContext returns nil and every instrumentation site is a nil
// check) versus on (a trace attached to the request context, per-phase
// spans wall-clocked, per-plan-node spans synthesized, the tree rendered to
// JSON). TraceOff is the regression guard: its ns/op and allocs/op must
// stay at the pre-tracing baseline.

func benchTraceQuery() matstore.Query {
	return matstore.Query{
		Output:      []string{tpch.ColShipdate, tpch.ColLinenum},
		Filters:     []matstore.Filter{{Col: tpch.ColShipdate, Pred: matstore.LessThan(400)}},
		Parallelism: 1,
	}
}

func benchTraceServer(b *testing.B) *service.Server {
	// Result cache off so every iteration executes; plan cache on, the
	// steady-state serving shape (the traced path bypasses it by design, so
	// TraceOn measures the full build+execute cost).
	return benchServerCfg(b, service.Config{
		WorkerBudget: 2, MaxConcurrent: 8, ResultCacheBytes: -1,
	})
}

// BenchmarkServerQueryTraceOff: the default untraced session path.
func BenchmarkServerQueryTraceOff(b *testing.B) {
	srv := benchTraceServer(b)
	sess := srv.NewSession()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Select(ctx, tpch.LineitemProj, benchTraceQuery(), matstore.LMParallel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerQueryTraceOn: the same selection with a span tree attached
// and rendered every iteration.
func BenchmarkServerQueryTraceOn(b *testing.B) {
	srv := benchTraceServer(b)
	sess := srv.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace("", "bench")
		ctx := obs.ContextWithSpan(context.Background(), tr.Root())
		if _, err := sess.Select(ctx, tpch.LineitemProj, benchTraceQuery(), matstore.LMParallel); err != nil {
			b.Fatal(err)
		}
		tr.Root().End()
		if tr.JSON() == nil {
			b.Fatal("no trace rendered")
		}
	}
}
