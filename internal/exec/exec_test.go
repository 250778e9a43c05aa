package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"matstore/internal/positions"
)

func TestMorselsCoverExtentExactly(t *testing.T) {
	for _, tc := range []struct {
		extent    positions.Range
		chunkSize int64
		workers   int
	}{
		{positions.Range{Start: 0, End: 60_000}, 65536, 4}, // fewer rows than one chunk
		{positions.Range{Start: 0, End: 60_000}, 1024, 4},
		{positions.Range{Start: 0, End: 60_000}, 1024, 1},
		{positions.Range{Start: 0, End: 1}, 64, 8},
		{positions.Range{Start: 0, End: 1 << 20}, 65536, 3},
		{positions.Range{Start: 0, End: 65536*7 + 13}, 65536, 2},
	} {
		ms := Morsels(tc.extent, tc.chunkSize, tc.workers)
		if len(ms) == 0 {
			t.Fatalf("%+v: no morsels", tc)
		}
		// Morsels are contiguous, ordered, non-empty, chunk-aligned, and
		// cover the extent exactly.
		if ms[0].Start != tc.extent.Start || ms[len(ms)-1].End != tc.extent.End {
			t.Errorf("%+v: morsels %v do not span extent", tc, ms)
		}
		for i, m := range ms {
			if m.Empty() {
				t.Errorf("%+v: empty morsel %v", tc, m)
			}
			if i > 0 && m.Start != ms[i-1].End {
				t.Errorf("%+v: gap between %v and %v", tc, ms[i-1], m)
			}
			if (m.Start-tc.extent.Start)%tc.chunkSize != 0 {
				t.Errorf("%+v: morsel start %d not chunk-aligned", tc, m.Start)
			}
		}
	}
}

func TestMorselsSerialIsWholeExtent(t *testing.T) {
	extent := positions.Range{Start: 0, End: 1 << 20}
	ms := Morsels(extent, 65536, 1)
	if len(ms) != 1 || ms[0] != extent {
		t.Errorf("workers=1 morsels = %v, want [%v]", ms, extent)
	}
}

func TestMorselsEmptyExtent(t *testing.T) {
	if ms := Morsels(positions.Range{}, 65536, 4); ms != nil {
		t.Errorf("empty extent morsels = %v", ms)
	}
}

func TestMorselsParallelSplits(t *testing.T) {
	// 16 chunks, 4 workers: expect more than one morsel and at most
	// workers*DefaultMorselsPerWorker.
	ms := Morsels(positions.Range{Start: 0, End: 16 * 1024}, 1024, 4)
	if len(ms) < 2 || len(ms) > 4*DefaultMorselsPerWorker {
		t.Errorf("got %d morsels", len(ms))
	}
}

func TestResolve(t *testing.T) {
	if Resolve(3) != 3 {
		t.Error("explicit parallelism not passed through")
	}
	if Resolve(0) < 1 || Resolve(-1) < 1 {
		t.Error("auto parallelism below 1")
	}
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const tasks = 100
		var counts [tasks]atomic.Int64
		err := Run(workers, tasks, func(task int) error {
			counts[task].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestRunReturnsFirstErrorInTaskOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Run(workers, 50, func(task int) error {
			if task >= 10 {
				return fmt.Errorf("task %d failed", task)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		// Serial execution stops at the first failing task; parallel
		// execution reports the lowest-index failure among those started.
		if workers == 1 && err.Error() != "task 10 failed" {
			t.Errorf("serial error = %v", err)
		}
	}
}

func TestRunStopsDispatchAfterError(t *testing.T) {
	sentinel := errors.New("boom")
	var started atomic.Int64
	err := Run(2, 1000, func(task int) error {
		started.Add(1)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n > 2 {
		t.Errorf("%d tasks started after failure", n)
	}
}

func TestRunZeroTasks(t *testing.T) {
	if err := Run(4, 0, func(int) error { t.Error("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestMorselsCoverAtEveryWorkerCount checks that every worker count produces
// a contiguous, chunk-aligned, covering partition — the invariant that makes
// parallel merges byte-identical to serial ones — and that more workers never
// carve fewer morsels.
func TestMorselsCoverAtEveryWorkerCount(t *testing.T) {
	extent := positions.Range{Start: 0, End: 64*37 + 11}
	prev := 0
	for _, workers := range []int{0, 1, 2, 4, 16, 100} {
		ms := Morsels(extent, 64, workers)
		if len(ms) == 0 {
			t.Fatalf("workers=%d: no morsels", workers)
		}
		if ms[0].Start != extent.Start || ms[len(ms)-1].End != extent.End {
			t.Errorf("workers=%d: morsels %v do not span extent", workers, ms)
		}
		for i, m := range ms {
			if m.Empty() || (i > 0 && m.Start != ms[i-1].End) || (m.Start-extent.Start)%64 != 0 {
				t.Errorf("workers=%d: bad morsel %d: %v", workers, i, m)
			}
		}
		if len(ms) < prev {
			t.Errorf("workers=%d carved fewer morsels (%d) than fewer workers (%d)", workers, len(ms), prev)
		}
		prev = len(ms)
	}
}

// TestShare pins the fair-share derating the admission governor applies:
// budget/inflight rounded down, floored at 1, capped at the budget.
func TestShare(t *testing.T) {
	for _, tc := range []struct {
		budget, inflight, want int
	}{
		{4, 1, 4},
		{4, 2, 2},
		{4, 3, 1},
		{4, 4, 1},
		{4, 100, 1}, // oversubscribed: everyone still makes progress
		{1, 1, 1},
		{1, 8, 1},
		{8, 3, 2},
		{0, 1, 1}, // degenerate budget
		{4, 0, 4}, // degenerate inflight
		{-2, -1, 1},
	} {
		if got := Share(tc.budget, tc.inflight); got != tc.want {
			t.Errorf("Share(%d, %d) = %d, want %d", tc.budget, tc.inflight, got, tc.want)
		}
	}
}
