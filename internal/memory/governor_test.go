package memory

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matstore/internal/faults"
)

func TestTryReserveBudget(t *testing.T) {
	g := New(100, 0)
	a := g.TryReserve(60)
	if a == nil {
		t.Fatal("first reservation should fit")
	}
	if g.TryReserve(50) != nil {
		t.Fatal("overcommit granted")
	}
	b := g.TryReserve(40)
	if b == nil {
		t.Fatal("exact fit refused")
	}
	a.Release()
	a.Release() // idempotent
	c := g.TryReserve(60)
	if c == nil {
		t.Fatal("release did not return bytes")
	}
	st := g.Stats()
	if st.Reserved != 100 || st.PeakReserved != 100 || st.Reservations != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReserveQueuesAndSheds(t *testing.T) {
	g := New(100, 1)
	hold := g.TryReserve(100)
	if hold == nil {
		t.Fatal("setup reservation failed")
	}
	// Oversized asks shed immediately.
	if _, err := g.Reserve(context.Background(), 101); !errors.Is(err, ErrShed) {
		t.Fatalf("oversized ask: %v", err)
	}
	// One waiter queues; a second exceeds maxWaiters=1 and sheds.
	got := make(chan *Reservation, 1)
	go func() {
		r, err := g.Reserve(context.Background(), 50)
		if err != nil {
			t.Error(err)
		}
		got <- r
	}()
	for !g.Pressured() {
		time.Sleep(time.Millisecond)
	}
	if _, err := g.Reserve(context.Background(), 10); !errors.Is(err, ErrShed) {
		t.Fatalf("second waiter should shed, got %v", err)
	}
	hold.Release()
	r := <-got
	if r == nil || r.Bytes() != 50 {
		t.Fatalf("queued reservation = %v", r)
	}
	r.Release()
	st := g.Stats()
	if st.Shed != 2 || st.Waited != 1 || st.Reserved != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReserveCancel(t *testing.T) {
	g := New(10, 0)
	hold := g.TryReserve(10)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := g.Reserve(ctx, 5)
		errCh <- err
	}()
	for !g.Pressured() {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Reserve: %v", err)
	}
	hold.Release()
	if g.Stats().Waiters != 0 {
		t.Fatal("cancelled waiter leaked")
	}
	// Budget fully available again.
	if g.TryReserve(10) == nil {
		t.Fatal("budget not restored after cancel")
	}
}

func TestAllocationPressureFault(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	g := New(1<<20, 0)
	faults.Enable("mem.reserve", faults.Failpoint{Mode: faults.Error})
	if g.TryReserve(1) != nil {
		t.Fatal("armed mem.reserve should refuse")
	}
	faults.Disable("mem.reserve")
	if g.TryReserve(1) == nil {
		t.Fatal("disarmed governor should grant")
	}
}

// TestConcurrentInvariant hammers the governor from many goroutines and
// checks, at every grant, that outstanding reservations never exceed the
// budget — the acceptance invariant for admission.
func TestConcurrentInvariant(t *testing.T) {
	const budget = 1000
	g := New(budget, 64)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := 1 + rng.Int63n(budget/2)
				r, err := g.Reserve(context.Background(), n)
				if err != nil {
					if !errors.Is(err, ErrShed) {
						t.Error(err)
					}
					continue
				}
				if total := outstanding.Add(n); total > budget {
					t.Errorf("outstanding %d > budget %d", total, budget)
				}
				outstanding.Add(-n)
				r.Release()
			}
		}(int64(w))
	}
	wg.Wait()
	if st := g.Stats(); st.Reserved != 0 {
		t.Fatalf("leaked %d reserved bytes", st.Reserved)
	}
}
