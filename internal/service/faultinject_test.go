//go:build faultinject

package service_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"matstore"
	"matstore/internal/faults"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Extended fault-injection suite, built with -tags faultinject (ci.sh runs
// it after the regular pass): scenarios that stretch timing with slow-IO
// faults or hammer the governor with more concurrency than the default
// suite, proving shed-under-saturation and cache-demotion fault paths keep
// the server serving.

// TestFaultinjectSaturationShedsAndKeepsServing drives more concurrent
// spilling joins than the memory governor can queue, with slow-IO faults
// stretching each spill so the pile-up is real: some requests shed with
// service.ErrShed, every non-shed request returns the byte-identical result,
// and afterwards the governor has fully drained.
func TestFaultinjectSaturationShedsAndKeepsServing(t *testing.T) {
	defer faults.Reset()
	spillDir := t.TempDir()
	srv := newServer(t, service.Config{
		WorkerBudget: 4,
		// 4 KiB: every join's spill grant is the whole budget, so governed
		// joins serialize and latecomers queue up to the waiter cap.
		MemoryBudgetBytes: 4 << 10,
		SpillDir:          spillDir,
		ResultCacheBytes:  -1,
	})
	q := matstore.JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    matstore.MatchAll,
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
	}
	ref, err := srv.NewSession().Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Stats.Join.Spilled {
		t.Fatal("fixture join did not spill")
	}

	faults.Enable("spill.write", faults.Failpoint{Mode: faults.Slow, Delay: 20 * time.Millisecond})
	const requests = 64 // well past the budget holder + 32-deep wait queue
	var wg sync.WaitGroup
	errs := make([]error, requests)
	results := make([]*matstore.Result, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := srv.NewSession().Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = out.Res
		}(i)
	}
	wg.Wait()
	faults.Reset()

	shed, served := 0, 0
	for i := 0; i < requests; i++ {
		switch {
		case errs[i] == nil:
			served++
			if !reflect.DeepEqual(results[i].Cols, ref.Res.Cols) {
				t.Fatalf("request %d: result differs under saturation", i)
			}
		case errors.Is(errs[i], service.ErrShed):
			shed++
		default:
			t.Fatalf("request %d: unexpected error %v", i, errs[i])
		}
	}
	if shed == 0 {
		t.Error("no request shed past the waiter cap")
	}
	if served == 0 {
		t.Error("no request served under saturation")
	}
	t.Logf("saturation: %d served, %d shed", served, shed)

	st := srv.Stats()
	if st.Memory.Reserved != 0 {
		t.Errorf("governor did not drain: %d bytes reserved", st.Memory.Reserved)
	}
	if st.Memory.Shed != int64(shed) {
		t.Errorf("stats shed_count = %d, observed %d", st.Memory.Shed, shed)
	}
	if st.Memory.PeakReserved > 4<<10 {
		t.Errorf("peak reserved %d exceeded the 4 KiB budget", st.Memory.PeakReserved)
	}
	assertNoSpillFiles(t, spillDir)
}

// TestFaultinjectCacheDemotionFaults arms the build-cache demotion and
// rehydration fault sites while alternating join shapes churn a build cache
// sized for one entry: a failed demotion just counts (the evicted build is
// dropped), a failed rehydration falls back to a fresh build — results stay
// byte-identical throughout and no temp files leak.
func TestFaultinjectCacheDemotionFaults(t *testing.T) {
	defer faults.Reset()
	baseGoroutines := runtime.NumGoroutine()
	spillDir := t.TempDir()
	srv := newServer(t, service.Config{
		WorkerBudget:      2,
		MemoryBudgetBytes: 1 << 30,  // plenty: joins run in memory, builds cache
		BuildCacheBytes:   24 << 10, // one ~17 KiB customer build fits, two don't
		SpillDir:          spillDir,
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
	// Two shapes with distinct build keys: alternating them evicts (and so
	// demotes) the other's build every time.
	strats := []matstore.RightStrategy{matstore.RightMaterialized, matstore.RightMultiColumn}
	want := make([]*matstore.Result, len(strats))
	for i, rs := range strats {
		out, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, q, rs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.Res
	}

	for _, site := range []string{"cache.demote", "cache.rehydrate"} {
		faults.Enable(site, faults.Failpoint{Mode: faults.Error})
		for round := 0; round < 3; round++ {
			for i, rs := range strats {
				out, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, q, rs)
				if err != nil {
					t.Fatalf("%s round %d: %v", site, round, err)
				}
				if !reflect.DeepEqual(out.Res.Cols, want[i].Cols) {
					t.Fatalf("%s round %d: result differs with fault armed", site, round)
				}
			}
		}
		faults.Reset()
	}
	st := srv.Stats()
	if st.BuildCache.Demotions == 0 && st.BuildCache.DemoteFailures == 0 {
		t.Errorf("churn produced no demotion activity: %+v", st.BuildCache)
	}
	if st.Memory.Reserved != 0 {
		t.Errorf("reservations leaked: %d", st.Memory.Reserved)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseGoroutines+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		t.Errorf("goroutines did not settle: %d, started with %d", n, baseGoroutines)
	}
}
