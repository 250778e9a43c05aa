package matstore

import (
	"fmt"

	"matstore/internal/model"
	"matstore/internal/obs"
	"matstore/internal/operators"
	"matstore/internal/plan"
)

// Explanation is the result of DB.Explain or DB.ExplainJoin: the physical
// plan a strategy builds for a query, annotated per node with the analytical
// model's cost prediction AND the counters observed while actually executing
// it. When the advisor's ranking disagrees with reality, the node whose
// modeled and observed columns diverge names the mis-modeled operator.
type Explanation struct {
	// Strategy is the strategy whose plan was explained (for joins: the
	// shape the outer probe side executes).
	Strategy Strategy
	// Plan is the underlying annotated plan tree (for programmatic access).
	Plan *plan.Plan
	// Tree is the rendered node tree, one line per node with modeled and
	// observed columns.
	Tree string
	// Modeled is the model's price of the plan (µs): the sum of the per-node
	// predictions, and the same number Advise and the serving layer's
	// est_cost_us report for this strategy.
	Modeled Cost
	// Stats is the execution's query-level statistics.
	Stats *Stats
	// JoinStats carries the full join statistics of an ExplainJoin run (nil
	// for selections).
	JoinStats *JoinStats
	// Result is the query result produced by the explain run.
	Result *Result
	// Constants are the model constants the annotation used (the DB's
	// current constants at explain time).
	Constants Constants
}

// Observations extracts the calibration observations of the explained run:
// one (model feature vector, observed self-time) pair per executed plan
// node. Feed batches of these to FitConstants to refit the model's CPU
// constants to this machine.
func (ex *Explanation) Observations() []Observation {
	return model.CollectObservations(ex.Plan)
}

// String renders the explanation: the node tree followed by the modeled
// total and the observed execution summary (join runs add the join-side
// counters: probes, build tuples, partitions, deferred fetches).
func (ex *Explanation) String() string {
	s := ex.Tree + fmt.Sprintf(
		"modeled total: cpu=%.0fµs io=%.0fµs (%.0fµs)\nobserved: wall=%v workers=%d morsels=%d tuples_out=%d tuples_constructed=%d chunks_skipped=%d\n",
		ex.Modeled.CPU, ex.Modeled.IO, ex.Modeled.Total(),
		ex.Stats.Wall, ex.Stats.Workers, ex.Stats.Morsels,
		ex.Stats.TuplesOut, ex.Stats.TuplesConstructed, ex.Stats.ChunksSkipped)
	if js := ex.JoinStats; js != nil {
		s += fmt.Sprintf(
			"join: right=%v probes=%d build_tuples=%d partitions=%d build_workers=%d deferred_fetches=%d\n",
			js.RightStrategy, js.Join.LeftProbes, js.Join.RightBuildTuples,
			js.Join.Partitions, js.Join.BuildWorkers, js.Join.DeferredFetches)
		if js.Join.Spilled {
			s += fmt.Sprintf("spill: partitions=%d/%d rescan_bytes=%d probes=%d\n",
				js.Join.SpilledParts, js.Join.Partitions, js.Join.SpillBytes, js.Join.SpillProbes)
		}
	}
	return s
}

// Explain builds the physical plan the strategy would run for q, annotates
// every node with the analytical model's predicted cost (the DB's current
// constants, warm pool), executes the plan with per-node observation enabled,
// and returns the rendered tree with modeled vs. observed stats side by side.
// q.Parallelism controls the observed run exactly as in Select.
func (db *DB) Explain(projection string, q Query, s Strategy) (*Explanation, error) {
	return db.ExplainTraced(projection, q, s, nil)
}

// ExplainTraced is Explain with an optional trace span: the observed run's
// phase and per-node spans attach under tr (nil = no tracing, identical to
// Explain).
func (db *DB) ExplainTraced(projection string, q Query, s Strategy, tr *obs.Span) (*Explanation, error) {
	p, err := db.inner.Projection(projection)
	if err != nil {
		return nil, err
	}
	pl, err := db.exec.BuildPlan(p, q, s)
	if err != nil {
		return nil, err
	}
	consts := db.Constants()
	modeled := consts.AnnotatePlan(pl, true).Cost
	return db.ExplainPlan(pl, s, consts, modeled, q.Parallelism, plan.RunOptions{Limit: q.Limit, Trace: tr})
}

// ExplainJoin builds the physical join plan for q (left ⋈ right under the
// given inner-table materialization strategy), annotates every node with the
// analytical model's Section 4.3 cost terms (the DB's current constants),
// executes the plan with per-node observation enabled — radix-partitioned
// parallel build, batched probe — and returns the rendered tree with modeled
// vs. observed stats side by side. q.Parallelism controls both join phases
// and q.SpillBudgetBytes the build exactly as in Join.
func (db *DB) ExplainJoin(left, right string, q JoinQuery, rs RightStrategy) (*Explanation, error) {
	return db.ExplainJoinTraced(left, right, q, rs, nil)
}

// ExplainJoinTraced is ExplainJoin with an optional trace span (see
// ExplainTraced).
func (db *DB) ExplainJoinTraced(left, right string, q JoinQuery, rs RightStrategy, tr *obs.Span) (*Explanation, error) {
	pl, err := db.joinPlan(left, right, q, rs)
	if err != nil {
		return nil, err
	}
	consts := db.Constants()
	est := consts.AnnotatePlan(pl, true)
	opt := plan.RunOptions{Limit: q.Limit, Trace: tr}
	if q.SpillBudgetBytes > 0 {
		opt.Spill = &operators.SpillConfig{BudgetBytes: q.SpillBudgetBytes, EstBytes: est.BuildBytes}
	}
	return db.ExplainPlan(pl, 0, consts, est.Cost, q.Parallelism, opt)
}

// ExplainPlan runs a built plan observed and renders it: the one body behind
// ExplainTraced, ExplainJoinTraced and the serving layer's EXPLAIN, which
// builds, prices and admits the plan itself. modeled is the plan's price
// under consts, taken by AnnotatePlan so that every node carries its share; s
// names a selection plan's strategy (a join reports its outer shape). opt
// carries the run's context, spill configuration, row cap and trace span;
// ExplainPlan turns observation on.
func (db *DB) ExplainPlan(pl *plan.Plan, s Strategy, consts Constants, modeled Cost, workers int, opt plan.RunOptions) (*Explanation, error) {
	opt.Observe = true
	ex := &Explanation{Strategy: s, Plan: pl, Modeled: modeled, Constants: consts}
	if pl.JoinProbe() != nil {
		res, stats, err := db.exec.RunJoinPlanWith(pl, workers, opt)
		if err != nil {
			return nil, err
		}
		ex.Strategy, ex.Stats, ex.JoinStats, ex.Result = stats.Strategy, &stats.Stats, stats, res
	} else {
		res, stats, err := db.exec.RunPlanWith(pl, s, workers, opt)
		if err != nil {
			return nil, err
		}
		ex.Stats, ex.Result = stats, res
	}
	ex.Tree = pl.Render()
	return ex, nil
}
