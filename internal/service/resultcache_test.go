// Result-cache suite: repeated identical requests are served from cached
// bytes without consuming an admission grant; the byte budget evicts LRU.
// Runs under -race via `go test -race ./internal/...`.
package service_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"matstore"
	"matstore/internal/oracle"
	"matstore/internal/tpch"
)

func selQuery(bound int64) matstore.Query {
	return matstore.Query{
		Output: []string{tpch.ColShipdate, tpch.ColLinenum},
		Filters: []matstore.Filter{
			{Col: tpch.ColShipdate, Pred: matstore.LessThan(bound)},
		},
	}
}

// TestResultCacheServesRepeatedQuery pins the tentpole contract: the second
// identical query is a result-cache hit that grants zero workers and leaves
// every admission counter untouched, and its payload is byte-identical to
// the executed one.
func TestResultCacheServesRepeatedQuery(t *testing.T) {
	srv := newServer(t, fullConfig(2, 4))
	sess := srv.NewSession()
	ctx := context.Background()

	first, err := sess.Select(ctx, tpch.LineitemProj, selQuery(1200), matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if first.Info.ResultCacheHit {
		t.Error("cold query reported a result-cache hit")
	}
	if first.Info.Workers < 1 {
		t.Errorf("cold query granted %d workers", first.Info.Workers)
	}
	before := srv.Stats().Admission

	second, err := sess.Select(ctx, tpch.LineitemProj, selQuery(1200), matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Info.ResultCacheHit {
		t.Fatal("repeated query missed the result cache")
	}
	if second.Info.Workers != 0 {
		t.Errorf("cached response granted %d workers, want 0", second.Info.Workers)
	}
	after := srv.Stats().Admission
	if after.Admitted != before.Admitted || after.WorkersGranted != before.WorkersGranted {
		t.Errorf("cached response went through admission: admitted %d->%d granted %d->%d",
			before.Admitted, after.Admitted, before.WorkersGranted, after.WorkersGranted)
	}
	if !reflect.DeepEqual(first.Res.Columns, second.Res.Columns) ||
		!reflect.DeepEqual(oracle.Columns(first.Res), oracle.Columns(second.Res)) {
		t.Error("cached response differs from executed one")
	}

	// A different bound is a different shape: miss.
	third, err := sess.Select(ctx, tpch.LineitemProj, selQuery(1300), matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if third.Info.ResultCacheHit {
		t.Error("different predicate bound hit the result cache")
	}

	st := srv.Stats().ResultCache
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 || st.Bytes <= 0 {
		t.Errorf("result cache stats = %+v, want 1 hit, 2 misses, 2 accounted entries", st)
	}
}

// TestResultCacheJoinHit: the same contract through the join path.
func TestResultCacheJoinHit(t *testing.T) {
	srv := newServer(t, fullConfig(2, 4))
	sess := srv.NewSession()
	ctx := context.Background()
	first, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Info.ResultCacheHit || second.Info.Workers != 0 {
		t.Errorf("repeated join: hit=%v workers=%d, want hit with 0 workers",
			second.Info.ResultCacheHit, second.Info.Workers)
	}
	if !reflect.DeepEqual(oracle.Columns(first.Res), oracle.Columns(second.Res)) {
		t.Error("cached join response differs from executed one")
	}
	if second.Stats.Join.RightBuildTuples != first.Stats.Join.RightBuildTuples {
		t.Error("cached join stats differ from the source run")
	}
}

// TestResultCacheEviction: a tiny byte budget evicts LRU entries and never
// exceeds capacity.
func TestResultCacheEviction(t *testing.T) {
	// Big enough for any single response (~20-160 KiB at the test scale) but
	// far smaller than all eight together.
	cfg := fullConfig(2, 4)
	cfg.ResultCacheBytes = 256 << 10
	srv := newServer(t, cfg)
	sess := srv.NewSession()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		bound := tpch.ShipdateForSelectivity(0.1 * float64(i+1))
		if _, err := sess.Select(ctx, tpch.LineitemProj, selQuery(bound), matstore.LMParallel); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats().ResultCache
	if st.Bytes > st.Capacity {
		t.Errorf("result cache over budget: %d > %d", st.Bytes, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Errorf("8 responses under a 256KiB budget evicted nothing: %+v", st)
	}
	if st.Entries == 0 || st.Entries == 8 {
		t.Errorf("eviction kept %d entries, want some but not all", st.Entries)
	}
}

// TestResultCacheConcurrentRepeats hammers one shape from many goroutines
// under -race: exactly the non-hit requests admit, and every response is
// identical.
func TestResultCacheConcurrentRepeats(t *testing.T) {
	srv := newServer(t, fullConfig(2, 8))
	ctx := context.Background()
	ref, err := srv.NewSession().Select(ctx, tpch.LineitemProj, selQuery(1200), matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := srv.NewSession()
			for i := 0; i < 16; i++ {
				out, err := sess.Select(ctx, tpch.LineitemProj, selQuery(1200), matstore.LMParallel)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(oracle.Columns(out.Res), oracle.Columns(ref.Res)) {
					errs[w] = fmt.Errorf("response %d differs from reference", i)
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
	st := srv.Stats()
	total := int64(workers*16 + 1)
	if st.Admission.Admitted+st.ResultCache.Hits != total {
		t.Errorf("admitted(%d) + result hits(%d) != requests(%d)",
			st.Admission.Admitted, st.ResultCache.Hits, total)
	}
	if st.ResultCache.Hits == 0 {
		t.Error("no result-cache hits across 128 repeats")
	}
}

// TestCancelledRequestReleasesSlot: a request whose context is cancelled —
// a selection, a join or either one's explain, all the same request path —
// never executes, surfaces ctx's error, and leaves the admission gate
// balanced for the next request.
func TestCancelledRequestReleasesSlot(t *testing.T) {
	srv := newServer(t, fullConfig(1, 1))
	sess := srv.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rq := range []struct {
		name string
		call func() error
	}{
		{"select", func() error {
			_, err := sess.Select(ctx, tpch.LineitemProj, selQuery(1200), matstore.LMParallel)
			return err
		}},
		{"join", func() error {
			_, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
			return err
		}},
		{"explain", func() error {
			_, _, err := sess.Explain(ctx, tpch.LineitemProj, selQuery(1200), matstore.LMParallel)
			return err
		}},
		{"join explain", func() error {
			_, _, err := sess.ExplainJoin(ctx, tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
			return err
		}},
	} {
		if err := rq.call(); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled %s returned %v, want context.Canceled", rq.name, err)
		}
	}
	// The single slot and worker are free: a live request sails through.
	out, err := sess.Select(context.Background(), tpch.LineitemProj, selQuery(1200), matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Info.Workers != 1 {
		t.Errorf("post-cancel request granted %d workers, want 1", out.Info.Workers)
	}
	st := srv.Stats().Admission
	if st.InFlight != 0 || st.WorkersInUse != 0 || st.Admitted != 1 {
		t.Errorf("cancelled requests disturbed the gate: %+v", st)
	}
}
