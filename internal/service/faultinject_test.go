//go:build faultinject

package service_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"matstore"
	"matstore/internal/faults"
	"matstore/internal/oracle"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Extended fault-injection suite, built with -tags faultinject (ci.sh runs
// it after the regular pass): scenarios that stretch timing with slow
// faults or hammer the governor with more concurrency than the default
// suite, proving the shed-under-saturation path keeps the server serving.

// TestFaultinjectSaturationShedsAndKeepsServing drives more concurrent
// spilling joins than the memory governor can queue, with a slow fault
// stretching each spill's pass B so the pile-up is real: some requests shed
// with service.ErrShed, every non-shed request returns the byte-identical
// result, and afterwards the governor has fully drained.
func TestFaultinjectSaturationShedsAndKeepsServing(t *testing.T) {
	defer faults.Reset()
	srv := newServer(t, service.Config{
		WorkerBudget: 4,
		// 4 KiB: every join's spill grant is the whole budget, so governed
		// joins serialize and latecomers queue up to the waiter cap.
		MemoryBudgetBytes: 4 << 10,
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

	faults.Enable("spill.read", faults.Failpoint{Mode: faults.Slow, Delay: 20 * time.Millisecond})
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
			if !reflect.DeepEqual(oracle.Columns(results[i]), oracle.Columns(ref.Res)) {
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
	assertNoSpillFiles(t)
}
