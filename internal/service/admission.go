package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"matstore/internal/exec"
	"matstore/internal/faults"
)

// ErrShed is returned when the governor refuses to queue a request: too many
// requests are already waiting for bytes. Servers map it to HTTP 503 +
// Retry-After.
var ErrShed = errors.New("memory: overloaded, shedding load")

// DefaultMaxWaiters bounds the requests parked for bytes before the governor
// sheds.
const DefaultMaxWaiters = 32

// grantSliceUS is the modeled cost (µs) one worker is expected to absorb when
// admission sizes a grant: a request modeled at N×grantSliceUS asks for N
// workers (clamped to [1, budget]).
const grantSliceUS = 100

// spillGrantFloor is the smallest spill-mode byte grant: enough for one
// resident partition's working set plus frame buffers.
const spillGrantFloor = 64 << 10

// resource names the three things a request is admitted against, in the
// order the wait loop looks for the one that is short.
type resource int

const (
	byteRes   resource = iota // the byte grant fits the memory budget
	slotRes                   // fewer than MaxConcurrent requests in flight
	workerRes                 // at least one morsel worker is free
	numResources
)

// The governor is the service's one admission controller: it grants a
// request its bytes, its admission slot and its morsel workers together,
// from one queue. Requests past any limit park on one condition variable and
// re-check one predicate — the byte grant fits ∧ a slot is free ∧ a worker
// is free — so nothing is ever held while queueing for something else (a
// join does not sit on its byte reservation while it waits for a slot).
//
// Bytes: a request that predicts a working set (a join's build side) is
// granted the full estimate when it fits at grant time and runs in memory;
// otherwise it is granted min(estimate, budget/4) clamped to
// [spillGrantFloor, budget] and runs in Grace spill mode — bounded spill is
// preferred over waiting for the full footprint. Only when the spill grant
// does not fit either does the request wait for bytes, and only then can it
// be shed: past DefaultMaxWaiters byte-waiters it is refused with ErrShed
// rather than queued. Requests that ask for no bytes are never shed. The
// invariant the concurrent suites pin: reserved bytes never exceed the
// budget, so a correctly-estimated workload cannot OOM.
//
// Workers: the global budget is divided across the in-flight queries. Grant
// sizing is workload-aware: when the caller supplies the analytical model's
// cost estimate, the desired width is ceil(cost / grantSliceUS) — a
// predicted-big scan asks for many workers, a point lookup for one — clamped
// to [1, budget]. Without an estimate the desired width falls back to the
// uniform fair share of the budget. Either way the final grant is
// min(requested, desired, workers free), which is what keeps the sum of
// grants provably within the budget.
type governor struct {
	mu   sync.Mutex
	cond *sync.Cond

	maxConcurrent, inflight int   // admission slots, and how many are taken
	budget, inUse           int   // morsel workers, and how many are granted
	byteBudget, reserved    int64 // bytes (budget 0 = ungoverned), and how many are granted
	// waiting counts requests parked in the wait loop — with inflight, the
	// denominator of the fair-share fallback; byteWaiters those of them
	// parked for bytes — the shed rule's queue depth and /readyz's pressure
	// signal.
	waiting, byteWaiters, maxByteWaiters int

	// Counters (guarded by mu).
	admitted, completed, aborted int64
	reservations, shed           int64
	grantsSum                    int64
	maxInflight, peakInUse       int
	peakReserved                 int64
	// queued counts requests that waited for each resource; waitNanos is the
	// time spent blocked on it, accumulated per cond.Wait episode — a request
	// that never blocks contributes exactly zero, however long the mutex
	// handoff took. An episode is charged to the first resource found short.
	queued, waitNanos [numResources]int64
	runningNanos      int64
}

func newGovernor(maxConcurrent, budget int, byteBudget int64) *governor {
	g := &governor{maxConcurrent: maxConcurrent, budget: budget,
		byteBudget: byteBudget, maxByteWaiters: DefaultMaxWaiters}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// ask is what a request wants admitted.
type ask struct {
	// want is the parallelism ceiling (<= 0 requests the full desired width,
	// the "auto" parallelism of Query.Parallelism).
	want int
	// priceUS is the price of the request's plan, the analytical model's
	// serial total (<= 0 takes the fair share).
	priceUS float64
	// estBytes is the plan's predicted working set (<= 0 asks for no bytes).
	estBytes int64
}

// grant describes one successful admission.
type grant struct {
	// workers is the granted (derated) morsel parallelism.
	workers int
	// bytes is the byte reservation held until release (0 when the request
	// asked for none or bytes are ungoverned); spill reports that it is a
	// spill-mode grant, smaller than the estimate.
	bytes int64
	spill bool
	// waits is the time actually spent blocked in cond.Wait on each resource
	// (zero when the request never queued).
	waits [numResources]time.Duration
}

func (g grant) queued() time.Duration {
	return g.waits[byteRes] + g.waits[slotRes] + g.waits[workerRes]
}

// admit blocks until the request's bytes, an admission slot and at least one
// worker are all free, then grants them together. Cancelling ctx aborts the
// wait with ctx's error, holding nothing; on success the caller must defer
// release. The faults site "mem.reserve" simulates allocation pressure: when
// armed, the full estimate is refused as if it did not fit.
func (g *governor) admit(ctx context.Context, a ask) (gr grant, release func(), err error) {
	governed := g.byteBudget > 0 && a.estBytes > 0
	pressure := governed && faults.Check("mem.reserve") != nil
	// cond.Wait cannot observe ctx on its own: a cancel must kick every
	// waiter off the monitor so the cancelled one can see ctx.Err (Broadcast
	// is cheap and wrong-wakeups re-check their predicates). The broadcast is
	// made UNDER the mutex: a waiter holds it from its ctx.Err check until
	// Wait parks it, so a cancel can never land between the two and wake
	// nobody.
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	defer stop()

	g.mu.Lock()
	defer g.mu.Unlock()
	var waited [numResources]bool
	for {
		if err = ctx.Err(); err != nil {
			if waited != [numResources]bool{} {
				g.aborted++
			}
			return gr, nil, err
		}
		// The in-memory-vs-spill decision is taken afresh at every look, so
		// it is the one that holds at grant time.
		if governed {
			gr.bytes, gr.spill = a.estBytes, false
			if pressure || g.reserved+gr.bytes > g.byteBudget {
				gr.bytes, gr.spill = g.spillGrant(a.estBytes), true
			}
		}
		short := numResources
		switch {
		case governed && g.reserved+gr.bytes > g.byteBudget:
			short = byteRes
		case g.inflight >= g.maxConcurrent:
			short = slotRes
		case g.inUse >= g.budget:
			short = workerRes
		}
		if short == numResources {
			break
		}
		if !waited[short] {
			if short == byteRes && g.byteWaiters >= g.maxByteWaiters {
				g.shed++
				return gr, nil, ErrShed
			}
			waited[short] = true
			g.queued[short]++
		}
		g.waiting++
		if short == byteRes {
			g.byteWaiters++
		}
		t := time.Now()
		g.cond.Wait()
		w := time.Since(t)
		if short == byteRes {
			g.byteWaiters--
		}
		g.waiting--
		gr.waits[short] += w
		g.waitNanos[short] += w.Nanoseconds()
	}

	want := a.want
	if want <= 0 || want > g.budget {
		want = g.budget
	}
	// The fair share divides the budget across the requests running and
	// queued (at most maxConcurrent of them can run at once), so a burst
	// released together shares it instead of the first one woken taking all.
	desired := exec.Share(g.budget, min(g.inflight+g.waiting+1, g.maxConcurrent))
	if a.priceUS > 0 {
		desired = g.budget
		if w := math.Ceil(a.priceUS / grantSliceUS); w < float64(desired) {
			desired = int(w)
		}
	}
	// The wait above guarantees at least one worker is free.
	gr.workers = min(desired, want, g.budget-g.inUse)
	workers, bytes := gr.workers, gr.bytes
	g.inflight++
	g.inUse += workers
	g.reserved += bytes
	g.admitted++
	g.grantsSum += int64(workers)
	if bytes > 0 {
		g.reservations++
	}
	g.maxInflight = max(g.maxInflight, g.inflight)
	g.peakInUse = max(g.peakInUse, g.inUse)
	g.peakReserved = max(g.peakReserved, g.reserved)
	granted := time.Now()

	var once sync.Once
	release = func() {
		once.Do(func() {
			g.mu.Lock()
			g.inflight--
			g.inUse -= workers
			g.reserved -= bytes
			g.completed++
			g.runningNanos += time.Since(granted).Nanoseconds()
			g.cond.Broadcast()
			g.mu.Unlock()
		})
	}
	return gr, release, nil
}

// spillGrant is the byte grant of a request whose full estimate does not
// fit: a quarter of the budget at most, never below the floor one resident
// partition needs, never above the budget (so it can always be granted).
func (g *governor) spillGrant(est int64) int64 {
	return min(max(min(est, g.byteBudget/4), spillGrantFloor), g.byteBudget)
}

// pressured reports whether requests are currently queued for memory — the
// signal /readyz uses to fail fast before a load balancer sends more work.
func (g *governor) pressured() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.byteWaiters > 0
}

// AdmissionStats is a snapshot of the governor's slot and worker counters.
type AdmissionStats struct {
	// Admitted and Completed count requests through the gate; Aborted counts
	// requests whose context was cancelled while they queued.
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Aborted   int64 `json:"aborted"`
	// InFlight and MaxInFlight describe concurrent load.
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`
	// QueuedAdmission counts requests that waited for an admission slot;
	// QueuedWorkers counts requests that waited for a worker.
	QueuedAdmission int64 `json:"queued_admission"`
	QueuedWorkers   int64 `json:"queued_workers"`
	// WorkerBudget is the configured global budget; WorkersInUse and
	// PeakWorkersInUse track grants against it (peak never exceeds budget).
	WorkerBudget     int `json:"worker_budget"`
	WorkersInUse     int `json:"workers_in_use"`
	PeakWorkersInUse int `json:"peak_workers_in_use"`
	// WorkersGranted sums every query's granted parallelism;
	// WorkersGranted/Completed is the mean per-query derated width.
	WorkersGranted int64 `json:"workers_granted"`
	// AdmissionWaitNanos and WorkerWaitNanos are time spent actually blocked
	// on each (cond.Wait episodes only — a request that never queues
	// contributes zero); QueuedNanos is their sum.
	AdmissionWaitNanos int64 `json:"admission_wait_nanos"`
	WorkerWaitNanos    int64 `json:"worker_wait_nanos"`
	QueuedNanos        int64 `json:"queued_nanos"`
	// RunningNanos is request wall time from grant to release.
	RunningNanos int64 `json:"running_nanos"`
}

// MemoryStats is the /stats memory block: the governor's byte counters plus
// the server's cumulative spill activity.
type MemoryStats struct {
	Budget       int64 `json:"budget"`
	Reserved     int64 `json:"reserved"`
	PeakReserved int64 `json:"peak_reserved"`
	Reservations int64 `json:"reservations"`
	Waiters      int   `json:"waiters"`
	Waited       int64 `json:"waited"`
	Shed         int64 `json:"shed_count"`
	// WaitNanos is the cumulative time requests spent blocked for bytes
	// (including waits that ended in cancellation).
	WaitNanos int64 `json:"wait_nanos"`
	// The spilled joins' count and sums of their operators.JoinStats: cold
	// partitions, and the bytes of (key, position) entries their builds left
	// to pass B.
	SpilledJoins      int64 `json:"spilled_joins"`
	SpilledPartitions int64 `json:"spilled_partitions"`
	SpillBytes        int64 `json:"spill_bytes"`
}

func (g *governor) snapshot() AdmissionStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return AdmissionStats{
		Admitted:           g.admitted,
		Completed:          g.completed,
		Aborted:            g.aborted,
		InFlight:           g.inflight,
		MaxInFlight:        g.maxInflight,
		QueuedAdmission:    g.queued[slotRes],
		QueuedWorkers:      g.queued[workerRes],
		WorkerBudget:       g.budget,
		WorkersInUse:       g.inUse,
		PeakWorkersInUse:   g.peakInUse,
		WorkersGranted:     g.grantsSum,
		AdmissionWaitNanos: g.waitNanos[slotRes],
		WorkerWaitNanos:    g.waitNanos[workerRes],
		QueuedNanos:        g.waitNanos[slotRes] + g.waitNanos[workerRes],
		RunningNanos:       g.runningNanos,
	}
}

// memory snapshots the governor's byte counters (the spill fields are the
// server's).
func (g *governor) memory() MemoryStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return MemoryStats{
		Budget:       g.byteBudget,
		Reserved:     g.reserved,
		PeakReserved: g.peakReserved,
		Reservations: g.reservations,
		Waiters:      g.byteWaiters,
		Waited:       g.queued[byteRes],
		Shed:         g.shed,
		WaitNanos:    g.waitNanos[byteRes],
	}
}
