package matstore

import (
	"matstore/internal/core"
	"matstore/internal/model"
	"matstore/internal/plan"
)

// JoinAdvice is the analytical model's evaluation of a join query: the
// predicted end-to-end cost of each inner-table materialization strategy
// (the Section 4.3 build and probe terms, the outer scan, the probe-side
// gathers and output iteration — the priced join plan) and the argmin, the
// Figure 13 winner at the query's selectivity.
type JoinAdvice struct {
	// Best is the inner-table strategy with the lowest predicted total cost.
	Best RightStrategy
	// Costs maps every inner-table strategy that can run the join (a
	// semi-join, with no right outputs, builds materialized only) to its
	// predicted cost.
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
	consts := db.Constants()
	best, plans, ests, err := consts.Choose(len(JoinStrategies), func(i int) (*plan.Plan, error) {
		return db.joinPlan(left, right, q, JoinStrategies[i])
	}, true, 1)
	if err != nil {
		return JoinAdvice{}, err
	}
	adv := JoinAdvice{Best: JoinStrategies[best], Costs: make(map[RightStrategy]Cost, len(JoinStrategies))}
	for i, rs := range JoinStrategies {
		if plans[i] != nil {
			adv.Costs[rs] = ests[i].Cost
		}
	}
	return adv, nil
}

// EstimateJoinMemory predicts the resident heap bytes the join's blocking
// hash-build side will pin under the given inner-table strategy, from catalog
// statistics alone (inner tuple count, distinct key count, payload block
// counts): the number the price walk reports as a join plan's BuildBytes, for
// a caller that sizes a spill budget without building the plan.
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
	payload := make([]plan.ColStats, len(q.RightOutput))
	for i, name := range q.RightOutput {
		c, err := t.Column(name)
		if err != nil {
			return 0, err
		}
		payload[i] = c.Stats
	}
	return model.EstimateJoinMemory(key.Stats, payload, rs), nil
}
