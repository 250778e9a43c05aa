// White-box governor suite: admission fairness under Broadcast wakeups,
// context-cancelled waits on every resource with nothing left held,
// cost-aware grant sizing, the wait-episode-only queue-time accounting, the
// byte budget (in-memory vs spill grants, queueing, shedding, the
// allocation-pressure failpoint) and the three limits together. Runs under
// -race via `go test -race ./internal/...`.
package service

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matstore/internal/faults"
)

// poll spins until cond() holds or the deadline passes.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGovernorFairnessAllAdmitted: many more requests than slots, all queued
// on the monitor's Broadcast, must all eventually admit and complete with
// the slot/worker books balanced.
func TestGovernorFairnessAllAdmitted(t *testing.T) {
	g := newGovernor(2, 4, 0, 0)
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, release, err := g.admit(context.Background(), ask{})
			if err != nil {
				errs[i] = err
				return
			}
			if info.workers < 1 || info.workers > 4 {
				t.Errorf("grant %d outside [1, 4]", info.workers)
			}
			time.Sleep(50 * time.Microsecond) // hold the grant briefly
			release()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := g.snapshot()
	if st.Admitted != n || st.Completed != n || st.Aborted != 0 {
		t.Errorf("admitted/completed/aborted = %d/%d/%d, want %d/%d/0",
			st.Admitted, st.Completed, st.Aborted, n, n)
	}
	if st.InFlight != 0 || st.WorkersInUse != 0 {
		t.Errorf("governor leaked: in_flight=%d workers_in_use=%d", st.InFlight, st.WorkersInUse)
	}
	if st.PeakWorkersInUse > 4 {
		t.Errorf("peak workers %d exceeds budget 4", st.PeakWorkersInUse)
	}
}

// TestGovernorCancelWhileQueuedForSlot: a request cancelled while waiting
// for an admission slot aborts with ctx's error, restores nothing it never
// took, and leaves the gate usable.
func TestGovernorCancelWhileQueuedForSlot(t *testing.T) {
	g := newGovernor(1, 1, 0, 0)
	_, release, err := g.admit(context.Background(), ask{want: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.admit(ctx, ask{want: 1})
		done <- err
	}()
	poll(t, "queued waiter", func() bool {
		return g.snapshot().QueuedAdmission == 1
	})
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled admit returned %v, want context.Canceled", err)
	}
	release()

	// The gate still works and the books balance.
	_, release2, err := g.admit(context.Background(), ask{want: 1})
	if err != nil {
		t.Fatal(err)
	}
	release2()
	st := g.snapshot()
	if st.Admitted != 2 || st.Completed != 2 {
		t.Errorf("admitted/completed = %d/%d, want 2/2", st.Admitted, st.Completed)
	}
	if st.InFlight != 0 || st.WorkersInUse != 0 || g.slotsForTest() != 1 {
		t.Errorf("gate left unbalanced: %+v slots=%d", st, g.slotsForTest())
	}
}

// TestGovernorCancelWhileQueuedForWorkers: a request that holds an admission
// slot but is cancelled waiting for a worker gives the slot back and counts
// as aborted, not admitted.
func TestGovernorCancelWhileQueuedForWorkers(t *testing.T) {
	g := newGovernor(4, 1, 0, 0)
	_, release, err := g.admit(context.Background(), ask{want: 1}) // takes the only worker
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.admit(ctx, ask{want: 1})
		done <- err
	}()
	poll(t, "worker waiter", func() bool {
		return g.snapshot().QueuedWorkers == 1
	})
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled admit returned %v, want context.Canceled", err)
	}
	release()

	st := g.snapshot()
	if st.Aborted != 1 || st.Admitted != 1 || st.Completed != 1 {
		t.Errorf("aborted/admitted/completed = %d/%d/%d, want 1/1/1",
			st.Aborted, st.Admitted, st.Completed)
	}
	if st.InFlight != 0 || st.WorkersInUse != 0 || g.slotsForTest() != 4 {
		t.Errorf("abort did not restore the books: %+v slots=%d", st, g.slotsForTest())
	}
	if st.WorkerWaitNanos == 0 {
		t.Error("worker wait was not accounted")
	}
}

// TestGovernorPreCancelled: an already-cancelled context never enters the
// gate.
func TestGovernorPreCancelled(t *testing.T) {
	g := newGovernor(1, 1, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.admit(ctx, ask{want: 1}); err != context.Canceled {
		t.Fatalf("pre-cancelled admit returned %v", err)
	}
	if st := g.snapshot(); st.Admitted != 0 {
		t.Errorf("pre-cancelled request was admitted: %+v", st)
	}
}

// TestGovernorNoWaitNoQueueTime pins the accounting fix: a request that
// sails through an idle gate must charge exactly zero queue time — wait time
// accumulates only across actual cond.Wait episodes, never mutex handoffs.
func TestGovernorNoWaitNoQueueTime(t *testing.T) {
	g := newGovernor(4, 4, 0, 0)
	for i := 0; i < 10; i++ {
		info, release, err := g.admit(context.Background(), ask{want: 1})
		if err != nil {
			t.Fatal(err)
		}
		if info.waits[slotRes] != 0 || info.waits[workerRes] != 0 {
			t.Errorf("idle-gate admit reported waits %v/%v, want 0/0",
				info.waits[slotRes], info.waits[workerRes])
		}
		release()
	}
	st := g.snapshot()
	if st.AdmissionWaitNanos != 0 || st.WorkerWaitNanos != 0 || st.QueuedNanos != 0 {
		t.Errorf("idle gate accumulated queue time: admission=%d worker=%d total=%d",
			st.AdmissionWaitNanos, st.WorkerWaitNanos, st.QueuedNanos)
	}
	if st.QueuedAdmission != 0 || st.QueuedWorkers != 0 {
		t.Errorf("idle gate counted queued requests: %+v", st)
	}
}

// TestGovernorCostAwareGrants: with a 100µs slice, a request modeled at
// 1000µs asks for 10 workers (clamped to the budget) while a 50µs point
// lookup gets exactly one — and without an estimate the fair share applies.
func TestGovernorCostAwareGrants(t *testing.T) {
	g := newGovernor(8, 8, 100, 0)
	cases := []struct {
		costUS float64
		want   int
	}{
		{50, 1},   // under one slice: a single worker
		{250, 3},  // ceil(250/100)
		{1000, 8}, // clamped to the budget
		{1e9, 8},  // absurd estimates still clamp
		{0, 8},    // no estimate: fair share (sole in-flight request)
		{-1, 8},   // negative estimate treated as absent
	}
	for _, c := range cases {
		info, release, err := g.admit(context.Background(), ask{costUS: c.costUS})
		if err != nil {
			t.Fatal(err)
		}
		if info.workers != c.want {
			t.Errorf("cost %vµs granted %d workers, want %d", c.costUS, info.workers, c.want)
		}
		release()
	}
	// Disabled sizing (slice <= 0) always falls back to the fair share.
	g = newGovernor(8, 8, -1, 0)
	info, release, err := g.admit(context.Background(), ask{costUS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if info.workers != 8 {
		t.Errorf("disabled sizing granted %d, want fair share 8", info.workers)
	}
	release()
}

// TestGovernorThreeResourceInvariant hammers the one gate from 64
// goroutines with random asks and random cancels and checks, at every grant,
// the three limits together — the sum of worker grants within the budget,
// reserved bytes within the byte budget, requests in flight within
// MaxConcurrent — and that everything drains to zero afterwards. The books
// kept here lag the governor's (they add after admit returns and subtract
// before release), so they can only under-count: an overshoot is real.
func TestGovernorThreeResourceInvariant(t *testing.T) {
	const (
		maxConcurrent = 6
		workers       = 4
		byteBudget    = 1 << 20
	)
	g := newGovernor(maxConcurrent, workers, 100, byteBudget)
	g.maxByteWaiters = 64 // nothing is shed: every request is granted or cancelled
	var inflight, inUse, reserved atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(4) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(300))*time.Microsecond, cancel)
				}
				a := ask{want: rng.Intn(workers + 1), costUS: float64(rng.Intn(1000))}
				if rng.Intn(3) > 0 {
					a.estBytes = 1 + rng.Int63n(byteBudget)
				}
				gr, release, err := g.admit(ctx, a)
				if err != nil {
					if err != context.Canceled {
						t.Errorf("admit: %v", err)
					}
					cancel()
					continue
				}
				if gr.workers < 1 || (a.estBytes > 0) != (gr.bytes > 0) {
					t.Errorf("ask %+v granted %+v", a, gr)
				}
				if n := inflight.Add(1); n > maxConcurrent {
					t.Errorf("%d in flight > MaxConcurrent %d", n, maxConcurrent)
				}
				if n := inUse.Add(int64(gr.workers)); n > workers {
					t.Errorf("%d workers granted > budget %d", n, workers)
				}
				if n := reserved.Add(gr.bytes); n > byteBudget {
					t.Errorf("%d bytes reserved > budget %d", n, byteBudget)
				}
				time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				inflight.Add(-1)
				inUse.Add(-int64(gr.workers))
				reserved.Add(-gr.bytes)
				release()
				cancel()
			}
		}(int64(w))
	}
	wg.Wait()
	st, mem := g.snapshot(), g.memory()
	if st.InFlight != 0 || st.WorkersInUse != 0 || mem.Reserved != 0 || mem.Waiters != 0 || g.waiting != 0 {
		t.Errorf("governor did not drain: %+v %+v waiting=%d", st, mem, g.waiting)
	}
	if st.Admitted != st.Completed || mem.Shed != 0 {
		t.Errorf("admitted %d, completed %d, shed %d", st.Admitted, st.Completed, mem.Shed)
	}
	if st.MaxInFlight > maxConcurrent || st.PeakWorkersInUse > workers || mem.PeakReserved > byteBudget {
		t.Errorf("a peak exceeded its limit: %+v %+v", st, mem)
	}
}

// TestGovernorCancelNeverLosesWakeup races cancel against parking. The
// budget is fully held and never released, so the only thing that can wake a
// waiter is its own cancel: if that broadcast could land between the
// waiter's ctx.Err check and cond.Wait parking it (it could when the
// broadcast was made without the mutex), the cancelled request would hang.
func TestGovernorCancelNeverLosesWakeup(t *testing.T) {
	g := newGovernor(4, 4, 0, spillGrantFloor)
	_, hold, err := g.admit(context.Background(), ask{estBytes: spillGrantFloor})
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	for i := 0; i < 4000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := g.admit(ctx, ask{estBytes: 1})
			done <- err
		}()
		for spin := i % 64; spin > 0; spin-- {
			runtime.Gosched() // move the cancel across the waiter's path to the park
		}
		cancel()
		select {
		case err := <-done:
			if err != context.Canceled {
				t.Fatalf("iteration %d: cancelled admit returned %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: cancelled admit never woke", i)
		}
	}
	if mem := g.memory(); mem.Waiters != 0 || mem.Reserved != spillGrantFloor {
		t.Errorf("after the race: %+v", mem)
	}
}

// TestGovernorByteBudget: the full estimate is granted while it fits (an
// exact fit included), a spill-mode slice when it does not, release is
// idempotent and returns the bytes.
func TestGovernorByteBudget(t *testing.T) {
	const kib = 1 << 10
	g := newGovernor(8, 8, 0, 1024*kib)
	admit := func(est int64, wantBytes int64, wantSpill bool) func() {
		t.Helper()
		gr, release, err := g.admit(context.Background(), ask{want: 1, estBytes: est})
		if err != nil {
			t.Fatal(err)
		}
		if gr.bytes != wantBytes || gr.spill != wantSpill {
			t.Fatalf("estimate %d granted %d bytes spill=%v, want %d spill=%v", est, gr.bytes, gr.spill, wantBytes, wantSpill)
		}
		return release
	}
	a := admit(600*kib, 600*kib, false)
	admit(500*kib, 256*kib, true)  // does not fit: a quarter of the budget, spilling
	admit(168*kib, 168*kib, false) // exactly what is left
	a()
	a() // idempotent
	admit(600*kib, 600*kib, false)
	if mem := g.memory(); mem.Reserved != 1024*kib || mem.PeakReserved != 1024*kib || mem.Reservations != 4 {
		t.Fatalf("stats = %+v", mem)
	}
}

// TestGovernorBytesQueueAndShed: a request whose spill grant does not fit
// queues; one past the waiter cap is shed; one that asks for no bytes never
// is; and the queued request's in-memory-vs-spill decision is the one that
// holds when it is finally granted.
func TestGovernorBytesQueueAndShed(t *testing.T) {
	const kib = 1 << 10
	g := newGovernor(8, 8, 0, 128*kib)
	g.maxByteWaiters = 1
	_, hold, err := g.admit(context.Background(), ask{want: 1, estBytes: 128 * kib})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan grant, 1)
	go func() {
		gr, release, err := g.admit(context.Background(), ask{want: 1, estBytes: 100 * kib})
		if err != nil {
			t.Error(err)
		} else {
			release()
		}
		got <- gr
	}()
	poll(t, "byte waiter", g.pressured)
	if _, _, err := g.admit(context.Background(), ask{want: 1, estBytes: 10 * kib}); !errors.Is(err, ErrShed) {
		t.Fatalf("second byte waiter should shed, got %v", err)
	}
	_, release, err := g.admit(context.Background(), ask{want: 1})
	if err != nil {
		t.Fatalf("a request asking for no bytes: %v", err)
	}
	release()
	hold()
	if gr := <-got; gr.bytes != 100*kib || gr.spill || gr.waits[byteRes] == 0 {
		t.Fatalf("queued request granted %+v, want its full estimate in memory after a byte wait", gr)
	}
	if mem := g.memory(); mem.Shed != 1 || mem.Waited != 1 || mem.Reserved != 0 || mem.WaitNanos == 0 {
		t.Fatalf("stats = %+v", mem)
	}
}

// TestGovernorBytesCancel: a request cancelled while queued for bytes leaves
// the queue with ctx's error and the budget is whole again.
func TestGovernorBytesCancel(t *testing.T) {
	g := newGovernor(8, 8, 0, spillGrantFloor)
	_, hold, _ := g.admit(context.Background(), ask{want: 1, estBytes: spillGrantFloor})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := g.admit(ctx, ask{want: 1, estBytes: 5})
		errCh <- err
	}()
	poll(t, "byte waiter", g.pressured)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled admit: %v", err)
	}
	hold()
	if mem := g.memory(); mem.Waiters != 0 || mem.Reserved != 0 {
		t.Fatalf("cancelled waiter leaked: %+v", mem)
	}
	gr, release, err := g.admit(context.Background(), ask{want: 1, estBytes: spillGrantFloor})
	if err != nil || gr.spill {
		t.Fatalf("budget not restored after cancel: %+v, %v", gr, err)
	}
	release()
}

// TestGovernorAllocationPressureFault: with mem.reserve armed the full
// estimate is refused as if it did not fit, and the request spills.
func TestGovernorAllocationPressureFault(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	g := newGovernor(8, 8, 0, 1<<20)
	faults.Enable("mem.reserve", faults.Failpoint{Mode: faults.Error})
	gr, release, err := g.admit(context.Background(), ask{want: 1, estBytes: 1})
	if err != nil || !gr.spill || gr.bytes != spillGrantFloor {
		t.Fatalf("armed mem.reserve granted %+v, %v; want a spill-mode grant", gr, err)
	}
	release()
	faults.Disable("mem.reserve")
	gr, release, err = g.admit(context.Background(), ask{want: 1, estBytes: 1})
	if err != nil || gr.spill || gr.bytes != 1 {
		t.Fatalf("disarmed governor granted %+v, %v; want the estimate in memory", gr, err)
	}
	release()
}

// slotsForTest reads the free-slot count (white-box).
func (g *governor) slotsForTest() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxConcurrent - g.inflight
}
