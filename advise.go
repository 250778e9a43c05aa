package matstore

import (
	"errors"

	"matstore/internal/core"
	"matstore/internal/exec"
	"matstore/internal/model"
)

// Advice is the analytical model's evaluation of a query: the predicted
// cost of every strategy and the argmin. This is the optimizer integration
// the paper proposes ("an analytical model that can be used … in a query
// optimizer to select a materialization strategy").
type Advice struct {
	// Best is the strategy with the lowest predicted total cost.
	Best Strategy
	// Costs maps every strategy to its predicted cost.
	Costs map[Strategy]Cost
}

// Advise predicts per-strategy costs for q over a warm buffer pool using
// the DB's current model constants (Table 2 until calibrated): it builds the
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

func (db *DB) advise(consts Constants, projection string, q Query, hot bool, workers int) (Advice, error) {
	if len(q.Filters) == 0 {
		return Advice{}, errors.New("matstore: Advise needs at least one filter")
	}
	costs := make([]Cost, len(core.AdviseOrder))
	adv := Advice{Costs: make(map[Strategy]Cost, len(core.AdviseOrder))}
	for i, s := range core.AdviseOrder {
		est, err := db.price(consts, projection, q, s, hot)
		if err != nil {
			return Advice{}, err
		}
		costs[i] = consts.AtWorkers(est, workers)
		adv.Costs[s] = costs[i]
	}
	adv.Best = core.AdviseOrder[model.Cheapest(costs)]
	return adv, nil
}

// price builds the plan s would run for q and prices it.
func (db *DB) price(consts Constants, projection string, q Query, s Strategy, hot bool) (model.Estimate, error) {
	p, err := db.inner.Projection(projection)
	if err != nil {
		return model.Estimate{}, err
	}
	pl, err := db.exec.BuildPlan(p, q, s)
	if err != nil {
		return model.Estimate{}, err
	}
	return consts.Price(pl, hot), nil
}

// EstimateSelectCost predicts the serial cost (µs, warm pool) of running q
// under strategy s using the DB's current constants. It builds the plan s
// would run and prices it: catalog statistics only, no data read and nothing
// shared with a running query. Unlike Advise it accepts filterless queries
// (an ALLPOS or unpredicated-scan plan like any other).
func (db *DB) EstimateSelectCost(projection string, q Query, s Strategy) (Cost, error) {
	est, err := db.price(db.Constants(), projection, q, s, true)
	return est.Cost, err
}
