package matstore

import (
	"errors"

	"matstore/internal/core"
	"matstore/internal/exec"
	"matstore/internal/plan"
)

// Advice is the analytical model's evaluation of a query: the predicted
// cost of every strategy and the argmin. This is the optimizer integration
// the paper proposes ("an analytical model that can be used … in a query
// optimizer to select a materialization strategy").
type Advice struct {
	// Best is the strategy with the lowest predicted total cost.
	Best Strategy
	// Costs maps every strategy that can run the query to its predicted cost.
	Costs map[Strategy]Cost
}

// AdviseOrder is the order the advisor compares strategies in: the first
// strictly cheaper one wins, so two strategies that build the same tree
// resolve to the earlier.
var AdviseOrder = core.AdviseOrder

// Advise predicts per-strategy costs for q over a warm buffer pool using
// the DB's current model constants (Table 2 until calibrated): the one
// chooser (model.Constants.Choose, which served requests call too) builds the
// plan each strategy would run — no data is read — and prices it, so a
// strategy's cost here, the serving layer's est_cost_us and EXPLAIN's
// "modeled total" are the same number. The prediction is for serial
// (one-worker) execution; use AdviseParallel for a morsel-parallel one.
func (db *DB) Advise(projection string, q Query) (Advice, error) {
	return db.advise(db.Constants(), projection, q, true, 1)
}

// AdviseParallel predicts per-strategy costs for q executed morsel-parallel
// at the given worker count (0 = one worker per CPU, matching
// Query.Parallelism semantics) over a warm buffer pool: plan-body CPU
// divides across workers, the coordinator tail (partial-result merge and
// output iteration) and the disk-arm I/O term do not. Parallelism can move
// the crossover: strategies whose serial disadvantage is plan-body CPU (e.g.
// EM-parallel's eager tuple construction) regain ground as W grows, while
// coordinator-tail costs stay fixed.
func (db *DB) AdviseParallel(projection string, q Query, workers int) (Advice, error) {
	return db.advise(db.Constants(), projection, q, true, exec.Resolve(workers))
}

// AdviseWith is Advise with explicit model constants and pool temperature
// (hot=false charges full scan I/O, the cold-start case).
func (db *DB) AdviseWith(consts Constants, projection string, q Query, hot bool) (Advice, error) {
	return db.advise(consts, projection, q, hot, 1)
}

// advise chooses among AdviseOrder's plans for q at the worker count.
func (db *DB) advise(consts Constants, projection string, q Query, hot bool, workers int) (Advice, error) {
	if len(q.Filters) == 0 {
		return Advice{}, errors.New("matstore: Advise needs at least one filter")
	}
	p, err := db.inner.Projection(projection)
	if err != nil {
		return Advice{}, err
	}
	best, plans, ests, err := consts.Choose(len(AdviseOrder), func(i int) (*plan.Plan, error) {
		return db.exec.BuildPlan(p, q, AdviseOrder[i])
	}, hot, workers)
	if err != nil {
		return Advice{}, err
	}
	adv := Advice{Best: AdviseOrder[best], Costs: make(map[Strategy]Cost, len(AdviseOrder))}
	for i, s := range AdviseOrder {
		if plans[i] != nil {
			adv.Costs[s] = consts.AtWorkers(ests[i], workers)
		}
	}
	return adv, nil
}
