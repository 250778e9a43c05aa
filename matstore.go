// Package matstore is a column-oriented storage and query execution engine
// that reproduces the system studied in Abadi, Myers, DeWitt and Madden,
// "Materialization Strategies in a Column-Oriented DBMS" (ICDE 2007).
//
// The engine stores C-Store-style projections (column files of 64KB blocks,
// optionally run-length- or bit-vector-encoded), executes selection,
// aggregation and join queries under all four materialization strategies
// the paper evaluates — EM-pipelined, EM-parallel, LM-pipelined,
// LM-parallel — and implements the paper's analytical cost model, which can
// advise the best strategy for a query.
//
// Query execution is morsel-parallel: the position space is partitioned
// into contiguous, chunk-aligned block ranges executed by a worker pool,
// and per-morsel partial results are merged deterministically (row partials
// concatenate in block order; aggregate partials combine through a
// mergeable-state contract), so results are byte-identical at every
// parallelism level. Query.Parallelism picks the worker count: 0 means one
// worker per CPU, 1 forces the paper's serial chunk-at-a-time execution.
//
// Quick start:
//
//	matstore.Generate(dir, 0.01, 42)              // TPC-H-shaped sample data
//	db, _ := matstore.Open(dir)
//	defer db.Close()
//	res, stats, _ := db.Select("lineitem", matstore.Query{
//		Output: []string{"shipdate", "linenum"},
//		Filters: []matstore.Filter{
//			{Col: "shipdate", Pred: matstore.LessThan(400)},
//			{Col: "linenum", Pred: matstore.LessThan(7)},
//		},
//		Parallelism: 0, // morsel-parallel across all CPUs
//	}, matstore.LMParallel)
package matstore

import (
	"sync/atomic"

	"matstore/internal/buffer"
	"matstore/internal/core"
	"matstore/internal/model"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// Re-exported query-description types.
type (
	// Query describes a selection (and optional SUM aggregation); see
	// core.SelectQuery for field documentation.
	Query = core.SelectQuery
	// Filter is one single-column predicate of a WHERE clause.
	Filter = core.Filter
	// JoinQuery describes an equi-join between two projections.
	JoinQuery = core.JoinQuery
	// Strategy is a materialization strategy.
	Strategy = core.Strategy
	// RightStrategy is a join inner-table materialization strategy.
	RightStrategy = operators.RightStrategy
	// Predicate is a SARGable single-column predicate.
	Predicate = pred.Predicate
	// Result is a columnar query result.
	Result = rows.Result
	// Stats describes one query execution.
	Stats = core.Stats
	// JoinStats describes one join execution.
	JoinStats = core.JoinStats
	// Cost is an analytical-model cost prediction (µs, CPU and I/O).
	Cost = model.Cost
	// Constants are the analytical model's machine constants (Table 2).
	Constants = model.Constants
	// AggFunc is an aggregate function for Query.Agg.
	AggFunc = operators.AggFunc
)

// Aggregate functions for Query.Agg (the zero value is Sum).
const (
	Sum   = operators.AggSum
	Count = operators.AggCount
	Avg   = operators.AggAvg
	Min   = operators.AggMin
	Max   = operators.AggMax
)

// ParseAggFunc converts a string such as "sum" to an AggFunc.
func ParseAggFunc(s string) (AggFunc, error) { return operators.ParseAggFunc(s) }

// Materialization strategies (Section 3.5 of the paper).
const (
	EMPipelined = core.EMPipelined
	EMParallel  = core.EMParallel
	LMPipelined = core.LMPipelined
	LMParallel  = core.LMParallel
)

// Join inner-table strategies (Section 4.3).
const (
	RightMaterialized = operators.RightMaterialized
	RightMultiColumn  = operators.RightMultiColumn
	RightSingleColumn = operators.RightSingleColumn
)

// Strategies lists all four materialization strategies.
var Strategies = core.Strategies

// Predicate constructors.
var (
	// MatchAll accepts every value.
	MatchAll = pred.MatchAll
	// LessThan returns v < a.
	LessThan = pred.LessThan
	// AtMost returns v <= a.
	AtMost = pred.AtMost
	// Equals returns v == a.
	Equals = pred.Equals
	// NotEquals returns v != a.
	NotEquals = pred.NotEquals
	// AtLeast returns v >= a.
	AtLeast = pred.AtLeast
	// GreaterThan returns v > a.
	GreaterThan = pred.GreaterThan
	// InRange returns a <= v < b.
	InRange = pred.InRange
)

// ParseStrategy converts a string such as "lm-parallel" to a Strategy.
func ParseStrategy(s string) (Strategy, error) { return core.ParseStrategy(s) }

// ParseRightStrategy converts a string such as "right-materialized" to a
// join inner-table RightStrategy.
func ParseRightStrategy(s string) (RightStrategy, error) { return operators.ParseRightStrategy(s) }

// PaperConstants returns the Table 2 constants from the paper's hardware.
func PaperConstants() Constants { return model.Paper }

// Calibrate measures the analytical-model constants on this machine
// bottom-up, by timing the small code segments each constant stands for.
// FitConstants is the complementary top-down refit from observed whole-query
// executions.
func Calibrate() Constants { return model.MeasureConstants() }

// Observation is one (model feature vector, observed node time) pair
// extracted from an explained execution; see Explanation.Observations.
type Observation = model.Observation

// CalibrationReport describes a FitConstants run: constants before/after and
// the RMS modeled-vs-observed error under each.
type CalibrationReport = model.CalibrationReport

// FitConstants refits the model's CPU constants to observed per-node
// execution times by least squares (ridge-regularized toward prior). The
// returned constants never fit the observations worse than the prior; feed
// them back with DB.SetConstants so the advisors, EXPLAIN annotations and
// cost-based admission grants run on constants measured on this machine
// rather than the paper's 2007 hardware.
func FitConstants(obs []Observation, prior Constants) (Constants, CalibrationReport) {
	return model.Calibrate(obs, prior)
}

// Generate writes TPC-H-shaped sample projections (lineitem, orders,
// customer) under dir at the given scale factor (1.0 ≈ 6M lineitem rows;
// the paper used 10.0). Generation is morsel-parallel across all CPUs;
// output bytes are identical at every worker count.
func Generate(dir string, scale float64, seed uint64) error {
	return tpch.Generate(dir, tpch.Config{Scale: scale, Seed: seed})
}

// Options tunes a DB handle.
type Options struct {
	// PoolBytes bounds the buffer pool (0 = unbounded).
	PoolBytes int64
	// Exec sets the executor's two sizes (chunk size, join partition count).
	Exec core.Options
}

// DB is an open database: a directory of projections served through a
// shared buffer pool.
type DB struct {
	inner *storage.DB
	exec  *core.Executor
	// consts are the analytical-model constants every advisor, EXPLAIN
	// annotation and cost estimate on this handle uses (atomic so a
	// calibration pass can swap them while queries run).
	consts atomic.Pointer[model.Constants]
	// orphansSwept counts stale spill temp files removed at Open.
	orphansSwept int
}

// Open opens every projection under dir.
func Open(dir string, opts ...Options) (*DB, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	inner, err := storage.OpenDB(dir, o.PoolBytes)
	if err != nil {
		return nil, err
	}
	db := &DB{inner: inner, exec: core.NewExecutor(inner.Pool(), o.Exec)}
	paper := model.Paper
	db.consts.Store(&paper)
	// Sweep spill temp files orphaned by a previous crash — their lifetime is
	// one query run, so anything present at open is garbage. Best effort: a
	// sweep failure (e.g. read-only media) must not block opening.
	db.orphansSwept, _ = operators.SweepSpillDir(operators.SpillDir(dir))
	return db, nil
}

// SpillDir returns the directory spill-mode joins write their temp files
// under (a dot-directory beside the projection directories).
func (db *DB) SpillDir() string { return operators.SpillDir(db.inner.Dir()) }

// OrphanedSpillFiles reports how many stale spill temp files Open removed —
// leftovers of a crash mid-spill in a previous process.
func (db *DB) OrphanedSpillFiles() int { return db.orphansSwept }

// Constants returns the model constants this handle currently runs on (the
// paper's Table 2 values until SetConstants installs calibrated ones).
func (db *DB) Constants() Constants { return *db.consts.Load() }

// SetConstants installs new model constants, e.g. the FitConstants output:
// Advise, AdviseParallel, AdviseJoin, Explain, ExplainJoin and the cost
// estimators all use them from the next call on. Safe under concurrent
// queries.
func (db *DB) SetConstants(c Constants) { db.consts.Store(&c) }

// Close releases all column files.
func (db *DB) Close() error { return db.inner.Close() }

// Exec exposes the underlying executor for in-module serving layers
// (internal/service builds and runs plans directly so it can cache them);
// the returned executor shares this DB's buffer pool and options.
func (db *DB) Exec() *core.Executor { return db.exec }

// Storage exposes the underlying projection store for in-module serving
// layers.
func (db *DB) Storage() *storage.DB { return db.inner }

// Projections lists the open projection names.
func (db *DB) Projections() []string { return db.inner.ProjectionNames() }

// PoolStats returns cumulative buffer-pool counters.
func (db *DB) PoolStats() buffer.Stats { return db.inner.Pool().Stats() }

// Select runs a selection/aggregation query against a projection under the
// chosen materialization strategy.
func (db *DB) Select(projection string, q Query, s Strategy) (*Result, *Stats, error) {
	p, err := db.inner.Projection(projection)
	if err != nil {
		return nil, nil, err
	}
	return db.exec.Select(p, q, s)
}

// Join runs an equi-join: left is the outer (probing) projection, right the
// inner (hash-built) one, rs the inner-table materialization strategy.
func (db *DB) Join(left, right string, q JoinQuery, rs RightStrategy) (*Result, *JoinStats, error) {
	lp, err := db.inner.Projection(left)
	if err != nil {
		return nil, nil, err
	}
	rp, err := db.inner.Projection(right)
	if err != nil {
		return nil, nil, err
	}
	if q.SpillBudgetBytes > 0 {
		pl, spill, err := db.spillJoinPlan(lp, rp, right, q, rs)
		if err != nil {
			return nil, nil, err
		}
		return db.exec.RunJoinPlanWith(pl, q.Parallelism, plan.RunOptions{Spill: spill, Limit: q.Limit})
	}
	return db.exec.Join(lp, rp, q, rs)
}

// spillJoinPlan builds the join plan plus the Grace spill configuration for
// a JoinQuery with SpillBudgetBytes set: the build side keeps at most the
// budget resident and writes the rest to per-partition temp files under the
// database's spill directory.
func (db *DB) spillJoinPlan(lp, rp *storage.Projection, right string, q JoinQuery, rs RightStrategy) (*plan.Plan, *operators.SpillConfig, error) {
	pl, err := db.exec.BuildJoinPlan(lp, rp, q, rs)
	if err != nil {
		return nil, nil, err
	}
	est, err := db.EstimateJoinMemory(right, q, rs)
	if err != nil {
		return nil, nil, err
	}
	return pl, &operators.SpillConfig{
		BudgetBytes: q.SpillBudgetBytes,
		EstBytes:    est,
		Dir:         db.SpillDir(),
	}, nil
}
