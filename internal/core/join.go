package core

import (
	"errors"
	"time"

	"matstore/internal/buffer"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
)

// JoinQuery describes the star-style equi-join of Section 4.3:
//
//	SELECT LeftOutput..., RightOutput...
//	FROM left, right
//	WHERE left.LeftKey = right.RightKey AND LeftPred(left.LeftKey)
//
// (The paper's experiment predicates the join key itself — Orders.custkey <
// X — which is what LeftPred models.)
type JoinQuery struct {
	LeftKey     string
	LeftPred    pred.Predicate
	LeftOutput  []string
	RightKey    string
	RightOutput []string
	// Parallelism is the worker count for BOTH join phases (0 = one per
	// CPU, 1 = serial): the radix-partitioned hash build scans the inner
	// table morsel-parallel into per-partition tables, and the outer-table
	// probe streams morsel-parallel against them.
	Parallelism int
	// SpillBudgetBytes, when > 0, caps the resident bytes of the build side:
	// the build runs in Grace spill mode, writing over-budget partitions to
	// temp files under the database's spill directory and probing them
	// partition-at-a-time. Results are byte-identical to the in-memory build
	// at every budget. 0 (the default) builds fully in memory. (The query
	// service sets the equivalent automatically from its memory governor;
	// this field is the direct-API and CLI switch.)
	SpillBudgetBytes int64
	// Limit caps the rows the result holds, as SelectQuery.Limit does (0 =
	// every row).
	Limit int
}

// JoinStats extends Stats with join-side counters.
type JoinStats struct {
	Stats
	RightStrategy operators.RightStrategy
	Join          operators.JoinStats
}

// BuildJoinPlan compiles q into the physical join plan: a PROJECT root over
// a JOINPROBE node whose children are the outer-table position subtree (a
// DS1 scan of the outer key when LeftPred filters, ALLPOS otherwise) and
// the blocking JOINBUILD node for the inner side. The plan runs through the
// same generic morsel executor as every selection plan — plan.Plan.Run's
// build-barrier phase constructs the partitioned hash side before the probe
// morsels stream.
func (e *Executor) BuildJoinPlan(left, right *storage.Projection, q JoinQuery, rs operators.RightStrategy) (*plan.Plan, error) {
	return e.BuildJoinPlanOn(TableOf(left), TableOf(right), q, rs)
}

// BuildJoinPlanOn is BuildJoinPlan over any two Tables. Building reads no
// data.
func (e *Executor) BuildJoinPlanOn(left, right Table, q JoinQuery, rs operators.RightStrategy) (*plan.Plan, error) {
	if len(q.RightOutput) == 0 && rs != operators.RightMaterialized {
		return nil, errors.New("core: join without right outputs is a semi-join; use RightMaterialized")
	}
	leftKey, err := left.Column(q.LeftKey)
	if err != nil {
		return nil, err
	}
	leftCols, err := resolveAll(left, q.LeftOutput)
	if err != nil {
		return nil, err
	}
	rightKey, err := right.Column(q.RightKey)
	if err != nil {
		return nil, err
	}
	rightCols, err := resolveAll(right, q.RightOutput)
	if err != nil {
		return nil, err
	}

	var pos *plan.Node
	if q.LeftPred.Op == pred.All {
		pos = plan.NewPosAll()
	} else {
		pos = plan.NewDS1(leftKey, []pred.Predicate{q.LeftPred})
	}
	build := plan.NewJoinBuild(rightKey, rightCols, rs, e.Opt.JoinPartitions)
	build.Proj = right.Name // the shared build cache's keying identity
	probe := plan.NewJoinProbe(leftKey, leftCols, pos, build)
	outNames := append(append([]string{}, q.LeftOutput...), q.RightOutput...)
	return &plan.Plan{
		Label: "join " + rs.String(),
		Root:  plan.NewProject(probe, outNames),
		Spec: plan.Spec{
			OutNames:  outNames,
			Output:    outNames,
			Tuples:    left.Tuples,
			ChunkSize: e.Opt.chunkSize(),
		},
	}, nil
}

// Join executes q with the given inner-table materialization strategy.
// left is the outer (probing) projection, right the inner (built)
// projection. The join is plan-built and plan-run exactly like Select
// (BuildJoinPlan + RunJoinPlan).
func (e *Executor) Join(left, right *storage.Projection, q JoinQuery, rs operators.RightStrategy) (*rows.Result, *JoinStats, error) {
	pl, err := e.BuildJoinPlan(left, right, q, rs)
	if err != nil {
		return nil, nil, err
	}
	return e.RunJoinPlanWith(pl, q.Parallelism, plan.RunOptions{Limit: q.Limit})
}

// RunJoinPlan executes a built join plan through the generic morsel
// executor, wrapping the run in the query-level accounting. With observe
// set, every plan node accumulates observed rows/time for EXPLAIN.
func (e *Executor) RunJoinPlan(pl *plan.Plan, parallelism int, observe bool) (*rows.Result, *JoinStats, error) {
	return e.RunJoinPlanWith(pl, parallelism, plan.RunOptions{Observe: observe})
}

// RunJoinPlanWith is RunJoinPlan with the full run options: a cancellation
// context and, when the memory governor forces it, a Grace spill
// configuration for the build side.
func (e *Executor) RunJoinPlanWith(pl *plan.Plan, parallelism int, opt plan.RunOptions) (*rows.Result, *JoinStats, error) {
	probe := pl.JoinProbe()
	if probe == nil {
		return nil, nil, errors.New("core: RunJoinPlan needs a join plan (PROJECT over JOINPROBE)")
	}
	stats := &JoinStats{RightStrategy: probe.Children[1].RightStrategy}
	stats.Strategy = outerShape(probe)
	before := e.Pool.Stats()
	start := time.Now()

	res, runStats, err := pl.RunWith(parallelism, opt)
	if err != nil {
		return nil, nil, err
	}
	stats.Join = runStats.Join
	stats.Workers = runStats.Workers
	stats.Morsels = runStats.Morsels
	stats.PositionsMatched = runStats.PositionsMatched
	stats.ChunksSkipped = runStats.ChunksSkipped
	stats.OutputChecksum = res.Checksum()
	stats.Wall = time.Since(start)
	stats.TuplesOut = res.Total
	stats.TuplesConstructed = runStats.Join.OutputTuples + runStats.Join.RightBuildTuples
	after := e.Pool.Stats()
	stats.Buffer = buffer.Stats{
		Hits:   after.Hits - before.Hits,
		Misses: after.Misses - before.Misses,
		Reads:  after.Reads - before.Reads,
		Seeks:  after.Seeks - before.Seeks,
	}
	return res, stats, nil
}

// outerShape reports the materialization strategy the outer (probe) side of
// a join plan actually executes, for JoinStats.Strategy: the probe streams
// positions from its scan subtree and materializes outer payload values late
// (batched gathers at surviving positions), so a chain subtree is
// LM-pipelined; a position-AND subtree would be LM-parallel.
func outerShape(probe *plan.Node) Strategy {
	shape := LMPipelined
	plan.Walk(probe.Children[0], func(n *plan.Node) {
		if n.Kind == plan.KindAND {
			shape = LMParallel
		}
	})
	return shape
}
