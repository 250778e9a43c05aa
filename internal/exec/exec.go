// Package exec implements the morsel-driven parallel execution layer: it
// partitions a projection's position space into contiguous, chunk-aligned
// morsels (runs of 64KB-block chunks), fans them out to a bounded worker
// pool, and leaves deterministic recombination of the per-morsel partial
// results to the caller (partials are indexed by morsel, so merging in
// morsel order reproduces sequential block order exactly).
//
// The unit of parallelism is the independent column block range — the same
// horizontal partition the chunk-at-a-time executor already uses — so a
// morsel worker runs an unmodified single-threaded strategy plan over its
// sub-range. Workers share nothing but the (concurrency-safe) buffer pool.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"matstore/internal/positions"
)

// DefaultMorselsPerWorker is the number of morsels carved per worker when
// the extent allows it: a few morsels per worker lets fast workers steal
// trailing work from slow ones (predicate selectivity can be very skewed
// across a sorted column) without fragmenting results.
const DefaultMorselsPerWorker = 4

// Resolve maps a query's requested parallelism to an effective worker
// count: 0 (auto) becomes the scheduler's CPU allowance, negative values
// are treated as auto, and explicit counts pass through.
func Resolve(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// Share returns the fair per-query slice of a global worker budget divided
// across inflight concurrent queries: budget/inflight rounded down, never
// below 1 (every admitted query makes progress) and never above the budget.
// The admission governor derates each query's parallelism with this so P
// concurrent queries never oversubscribe the pool.
func Share(budget, inflight int) int {
	if budget < 1 {
		budget = 1
	}
	if inflight < 1 {
		inflight = 1
	}
	share := budget / inflight
	if share < 1 {
		return 1
	}
	return share
}

// Morsels partitions extent into contiguous morsels whose boundaries fall
// on chunk boundaries relative to extent.Start, so that chunking a morsel
// reproduces exactly the chunks sequential execution would have visited.
// With one worker (or one chunk) the extent is returned whole — the serial
// path stays byte-for-byte the chunk-at-a-time executor. extent.Start must
// be 64-aligned (it is 0 for every stored column) so bit-vector windows and
// bitmap descriptors stay word-aligned inside every morsel.
func Morsels(extent positions.Range, chunkSize int64, workers int) []positions.Range {
	if extent.Empty() {
		return nil
	}
	if chunkSize <= 0 || chunkSize%64 != 0 {
		panic(fmt.Sprintf("exec: chunk size %d must be a positive multiple of 64", chunkSize))
	}
	if extent.Start%64 != 0 {
		panic(fmt.Sprintf("exec: extent start %d not 64-aligned", extent.Start))
	}
	numChunks := (extent.Len() + chunkSize - 1) / chunkSize
	if workers <= 1 || numChunks <= 1 {
		return []positions.Range{extent}
	}
	target := int64(workers) * DefaultMorselsPerWorker
	if target > numChunks {
		target = numChunks
	}
	chunksPer := (numChunks + target - 1) / target
	step := chunksPer * chunkSize
	out := make([]positions.Range, 0, (extent.Len()+step-1)/step)
	for start := extent.Start; start < extent.End; start += step {
		end := start + step
		if end > extent.End {
			end = extent.End
		}
		out = append(out, positions.Range{Start: start, End: end})
	}
	return out
}

// Run executes fn(task) for every task in [0, tasks) on at most workers
// goroutines, handing out tasks from a shared counter (morsel-driven
// work stealing: whichever worker is free takes the next morsel). With one
// worker it degenerates to an in-place loop on the calling goroutine.
//
// On failure the first error in task order is returned and no new tasks are
// started; already-running tasks finish first, so fn never runs after Run
// returns.
func Run(workers, tasks int, fn func(task int) error) error {
	if tasks <= 0 {
		return nil
	}
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, tasks)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				t := int(next.Add(1)) - 1
				if t >= tasks {
					return
				}
				if err := fn(t); err != nil {
					errs[t] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
