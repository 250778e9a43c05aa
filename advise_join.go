package matstore

import (
	"matstore/internal/core"
	"matstore/internal/model"
)

// JoinAdvice is the analytical model's evaluation of a join query: the
// predicted end-to-end cost of each inner-table materialization strategy
// (the Section 4.3 build and probe terms, the outer scan, the probe-side
// gathers and output iteration — the priced join plan) and the argmin, the
// Figure 13 winner at the query's selectivity.
type JoinAdvice struct {
	// Best is the inner-table strategy with the lowest predicted total cost.
	Best RightStrategy
	// Costs maps every inner-table strategy to its predicted cost.
	Costs map[RightStrategy]Cost
}

// JoinStrategies lists the three inner-table strategies in presentation
// order.
var JoinStrategies = model.JoinStrategies

// AdviseJoin predicts per-strategy costs for the join left ⋈ right over a
// warm buffer pool using the DB's current model constants, pricing the join
// plan each strategy would run: the outer predicate's selectivity comes from
// the outer key's min/max, and the matches-per-key fan-out from the inner
// key's distinct count (exact for the paper's foreign-key join).
func (db *DB) AdviseJoin(left, right string, q JoinQuery) (JoinAdvice, error) {
	costs := make([]Cost, len(JoinStrategies))
	adv := JoinAdvice{Costs: make(map[RightStrategy]Cost, len(JoinStrategies))}
	for i, rs := range JoinStrategies {
		c, err := db.EstimateJoinCost(left, right, q, rs)
		if err != nil {
			return JoinAdvice{}, err
		}
		costs[i] = c
		adv.Costs[rs] = c
	}
	adv.Best = JoinStrategies[model.Cheapest(costs)]
	return adv, nil
}

// EstimateJoinCost predicts the end-to-end cost (µs, warm pool) of the join
// under one inner-table strategy using the DB's current constants — the
// catalog-statistics-only estimate the admission governor's grant sizer
// uses: it builds a join plan of its own and prices it.
func (db *DB) EstimateJoinCost(left, right string, q JoinQuery, rs RightStrategy) (Cost, error) {
	lp, err := db.inner.Projection(left)
	if err != nil {
		return Cost{}, err
	}
	rp, err := db.inner.Projection(right)
	if err != nil {
		return Cost{}, err
	}
	pl, err := db.exec.BuildJoinPlan(lp, rp, q, rs)
	if err != nil {
		return Cost{}, err
	}
	return db.Constants().Price(pl, true).Cost, nil
}

// EstimateJoinMemory predicts the resident heap bytes the join's blocking
// hash-build side will pin under the given inner-table strategy, from catalog
// statistics alone (inner tuple count, distinct key count, payload block
// counts). The admission governor reserves this many bytes before granting an
// in-memory join, and sizes the spill budget from it when the grant doesn't
// fit.
func (db *DB) EstimateJoinMemory(right string, q JoinQuery, rs RightStrategy) (int64, error) {
	rp, err := db.inner.Projection(right)
	if err != nil {
		return 0, err
	}
	t := core.TableOf(rp)
	key, err := t.Column(q.RightKey)
	if err != nil {
		return 0, err
	}
	blocks := make([]int64, 0, len(q.RightOutput))
	for _, name := range q.RightOutput {
		c, err := t.Column(name)
		if err != nil {
			return 0, err
		}
		blocks = append(blocks, int64(c.Stats.Blocks))
	}
	return model.EstimateJoinMemory(int64(key.Stats.Tuples), key.Stats.Distinct, blocks, rs), nil
}
