// Package core implements the paper's primary contribution: the four
// materialization strategies for selection/aggregation plans (Section 3.5)
// and the join materialization wrapper (Section 4.3), executed
// chunk-at-a-time over C-Store-style projections.
//
//   - EM-pipelined: DS2 on the first predicate column produces early
//     (position, value) tuples; each further column is a DS4 that jumps to
//     tuple positions, filters, and widens the tuples.
//   - EM-parallel: an SPC leaf scans all needed columns in lockstep and
//     constructs tuples at the very bottom of the plan.
//   - LM-pipelined: DS1 on the first column produces positions; each
//     further predicate column filters those positions in place
//     (DS3+predicate); values are extracted and merged only at the top.
//   - LM-parallel: DS1 on every predicate column in parallel, position
//     lists ANDed, then DS3 extraction and a final MERGE.
//
// Both LM strategies use the multi-column optimization of Section 3.6
// (mini-columns are retained, so DS3 never re-reads a block a scan of the
// same chunk already windowed); a column no scan touched is re-accessed
// through the batched gather — the LM penalty of Section 2.2.
//
// Each strategy is a plan BUILDER (builders.go): it assembles a tree of
// internal/plan operator nodes, and the single generic morsel executor in
// internal/plan runs any such tree. Consecutive same-column predicates fuse
// into one multi-predicate scan node. The plan tree is the executor's only
// input: what varies between two runs of a query is the tree (the strategy
// and, for joins, the inner-table strategy), the worker count and the two
// sizes in Options — there is no switch that selects a different code path
// under the same tree. The reference every strategy is tested against is
// internal/oracle's row-at-a-time loop, not a second path in here.
package core

import (
	"errors"
	"fmt"
	"time"

	"matstore/internal/buffer"
	"matstore/internal/datasource"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
)

// Strategy selects a materialization strategy.
type Strategy uint8

const (
	// EMPipelined is early materialization, one predicate column at a time.
	EMPipelined Strategy = iota
	// EMParallel is early materialization with an SPC leaf.
	EMParallel
	// LMPipelined is late materialization with pipelined position filtering.
	LMPipelined
	// LMParallel is late materialization with a position-list AND.
	LMParallel
)

// Strategies lists all four strategies in presentation order.
var Strategies = []Strategy{EMPipelined, EMParallel, LMPipelined, LMParallel}

// AdviseOrder is the order a cost-based advisor compares strategies in; the
// first strictly cheaper one wins, so two strategies that build the same
// tree (a one-filter LM plan is the same pipelined or parallel) resolve to
// the earlier.
var AdviseOrder = []Strategy{EMParallel, EMPipelined, LMPipelined, LMParallel}

func (s Strategy) String() string {
	switch s {
	case EMPipelined:
		return "EM-pipelined"
	case EMParallel:
		return "EM-parallel"
	case LMPipelined:
		return "LM-pipelined"
	case LMParallel:
		return "LM-parallel"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy converts a string (as used by CLI flags) to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "em-pipelined", "emp", "EM-pipelined":
		return EMPipelined, nil
	case "em-parallel", "eml", "EM-parallel":
		return EMParallel, nil
	case "lm-pipelined", "lmp", "LM-pipelined":
		return LMPipelined, nil
	case "lm-parallel", "lml", "LM-parallel":
		return LMParallel, nil
	default:
		return 0, fmt.Errorf("core: unknown strategy %q", s)
	}
}

// Filter is one single-column SARGable predicate of a query's WHERE clause.
type Filter struct {
	Col  string
	Pred pred.Predicate
}

// SelectQuery describes a selection (and optional single-key aggregation)
// over one projection, the query shape of Sections 3.5–4.2:
//
//	SELECT Output... FROM projection WHERE Filters...
//	[GROUP BY GroupBy -> SELECT GroupBy, Agg(AggCol)]
type SelectQuery struct {
	// Output lists the projected columns (ignored when GroupBy is set).
	Output []string
	// Filters are ANDed single-column predicates, applied in order (order
	// matters for pipelined strategies: put the most selective first).
	Filters []Filter
	// GroupBy, when non-empty, turns the query into an aggregation with
	// Agg(AggCol) grouped by GroupBy.
	GroupBy string
	// AggCol is the aggregated column (required with GroupBy).
	AggCol string
	// Agg is the aggregate function; the zero value is SUM, the paper's
	// experiment aggregate.
	Agg operators.AggFunc
	// Parallelism is the number of workers executing the query's morsels
	// (contiguous, chunk-aligned block ranges). 0 means one worker per CPU;
	// 1 runs the exact serial chunk-at-a-time plan. Results are identical at
	// every level: per-morsel partials are merged in block order.
	Parallelism int
	// Limit caps the rows the result holds: its first Limit rows in output
	// order (0 = every row). The result's Total and Sums, and with them
	// Stats.TuplesOut and Stats.OutputChecksum, cover every row either way —
	// rows beyond the cap are counted and summed chunk by chunk and never
	// kept. Like Parallelism it sizes the run and is no part of the plan.
	Limit int
}

// Aggregating reports whether the query has an aggregation on top.
func (q SelectQuery) Aggregating() bool { return q.GroupBy != "" }

// check is the query's structural sanity; the plan builders resolve every
// referenced column themselves, so building a plan validates the query.
func (q SelectQuery) check() error {
	if q.Aggregating() {
		if q.AggCol == "" {
			return errors.New("core: GROUP BY requires AggCol")
		}
	} else if len(q.Output) == 0 {
		return errors.New("core: query needs output columns or an aggregation")
	}
	return nil
}

// referenced returns every column the query touches, filters first,
// deduplicated in first-use order.
func (q SelectQuery) referenced() []string {
	var out []string
	seen := map[string]bool{}
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, f := range q.Filters {
		add(f.Col)
	}
	if q.Aggregating() {
		add(q.GroupBy)
		add(q.AggCol)
	} else {
		for _, n := range q.Output {
			add(n)
		}
	}
	return out
}

// outputNames returns the result schema.
func (q SelectQuery) outputNames() []string {
	if q.Aggregating() {
		return []string{q.GroupBy, q.Agg.String() + "(" + q.AggCol + ")"}
	}
	return q.Output
}

// Options are the executor's two sizes. Neither selects a code path: results
// are identical at every value, and the test suites set them to reach
// multi-chunk and multi-partition execution on small data.
type Options struct {
	// ChunkSize is the horizontal-partition width in positions (default
	// datasource.DefaultChunkSize). Must be a positive multiple of 64.
	ChunkSize int64
	// JoinPartitions overrides the radix partition count of the parallel
	// join hash build (rounded up to a power of two; 0 derives it from the
	// worker count). Results are identical at every partition count.
	JoinPartitions int
}

func (o Options) chunkSize() int64 {
	if o.ChunkSize <= 0 {
		return datasource.DefaultChunkSize
	}
	return o.ChunkSize
}

// Stats describes one query execution.
type Stats struct {
	Strategy Strategy
	// Wall is the end-to-end execution time.
	Wall time.Duration
	// TuplesOut is the number of result tuples (every one, also under a
	// Limit that keeps fewer).
	TuplesOut int64
	// TuplesConstructed counts every intermediate or output tuple stitched
	// together (the quantity LM tries to minimize).
	TuplesConstructed int64
	// PositionsMatched is the number of positions surviving all predicates.
	PositionsMatched int64
	// ChunksSkipped counts chunks whose remaining columns were never read
	// because no positions survived (pipelined block skipping).
	ChunksSkipped int64
	// Groups is the number of aggregation groups (0 for selections).
	Groups int
	// Workers is the resolved worker count the query executed with.
	Workers int
	// Morsels is the number of contiguous block-range partitions the
	// position space was split into (1 in serial execution).
	Morsels int
	// Buffer is the buffer-pool traffic delta attributable to this query.
	Buffer buffer.Stats
	// OutputChecksum is a fold over all output values — the paper's
	// result-iteration pass, taken chunk by chunk as the result is written
	// (prevents dead-code elimination in benchmarks and doubles as a cheap
	// cross-strategy equivalence probe).
	OutputChecksum int64
	// AggState is the query's final merged aggregator (aggregating queries
	// only): the mergeable per-group statistics behind the emitted rows,
	// which a shard exports so a scatter-gather coordinator can absorb
	// disjoint-range partials and re-emit. Emitted aggregate values do not
	// merge across shards (AVG loses its count); these statistics do.
	AggState *operators.Aggregator
}

// Executor runs queries against projections through a shared buffer pool.
type Executor struct {
	Pool *buffer.Pool
	Opt  Options
}

// NewExecutor returns an executor with the given pool and options.
func NewExecutor(pool *buffer.Pool, opt Options) *Executor {
	return &Executor{Pool: pool, Opt: opt}
}

// Select runs q against p with the chosen materialization strategy,
// morsel-parallel across q.Parallelism workers (0 = one per CPU): the
// strategy builds its physical plan (BuildPlan) and the generic plan
// executor runs it (RunPlanWith).
func (e *Executor) Select(p *storage.Projection, q SelectQuery, s Strategy) (*rows.Result, *Stats, error) {
	pl, err := e.BuildPlan(p, q, s)
	if err != nil {
		return nil, nil, err
	}
	return e.RunPlanWith(pl, s, q.Parallelism, plan.RunOptions{Limit: q.Limit})
}

// RunPlanWith executes a built physical plan through the generic morsel
// executor under the given run options (context, tracing, spill, row cap),
// wrapping the run in the query-level accounting (wall time, buffer-pool
// deltas, output iteration). With opt.Observe set, every plan node
// accumulates observed rows/time for EXPLAIN.
func (e *Executor) RunPlanWith(pl *plan.Plan, s Strategy, parallelism int, opt plan.RunOptions) (*rows.Result, *Stats, error) {
	stats := &Stats{Strategy: s}
	before := e.Pool.Stats()
	start := time.Now()

	res, runStats, err := pl.RunWith(parallelism, opt)
	if err != nil {
		return nil, nil, err
	}
	stats.TuplesConstructed = runStats.TuplesConstructed
	stats.PositionsMatched = runStats.PositionsMatched
	stats.ChunksSkipped = runStats.ChunksSkipped
	stats.Groups = runStats.Groups
	stats.Workers = runStats.Workers
	stats.Morsels = runStats.Morsels
	stats.AggState = runStats.AggState

	stats.OutputChecksum = res.Checksum()
	stats.Wall = time.Since(start)
	stats.TuplesOut = res.Total
	after := e.Pool.Stats()
	stats.Buffer = buffer.Stats{
		Hits:   after.Hits - before.Hits,
		Misses: after.Misses - before.Misses,
		Reads:  after.Reads - before.Reads,
		Seeks:  after.Seeks - before.Seeks,
	}
	return res, stats, nil
}
