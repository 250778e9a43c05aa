package service_test

import (
	"context"
	"testing"

	"matstore"
	"matstore/internal/tpch"
)

// TestServedRequestAllocs pins what a served request allocates on the
// service's own path. A result-cache hit, named or advised, allocates its
// reply and builds, prices, admits and runs nothing (2 allocations: the
// lookup comes before the choice). A miss builds each candidate plan once,
// prices each in one walk — its cost and a join's build-side bytes — picks
// the cheapest, admits on that price and runs it: a selection miss and a
// join miss (distinct constants, a 100-row cap, one worker, the join's hash
// side a build-cache hit) measured 103 and 74 allocations under one named
// strategy (78 for the join under the race detector) and 156 and 132 advised
// (137 under the race detector). The named bounds are an earlier
// measurement (101 and 72) plus a tenth; the advised ones this measurement
// plus a tenth.
func TestServedRequestAllocs(t *testing.T) {
	const (
		hitBound           = 2
		selectMissBound    = 111
		joinMissBound      = 79
		advSelectMissBound = 171
		advJoinMissBound   = 145
	)
	srv := newServer(t, fullConfig(1, 2))
	sess := srv.NewSession()
	ctx := context.Background()
	sel := func(bound int64) matstore.Query {
		q := selQuery(bound)
		q.Limit = 100
		return q
	}
	join := func(bound int64) matstore.JoinQuery {
		q := joinReq()
		q.LeftPred, q.Limit = matstore.LessThan(bound), 100
		return q
	}
	mustSelect := func(q matstore.Query, strats ...matstore.Strategy) {
		if _, err := sess.Select(ctx, tpch.LineitemProj, q, strats...); err != nil {
			t.Fatal(err)
		}
	}
	mustJoin := func(q matstore.JoinQuery, rss ...matstore.RightStrategy) {
		if _, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, q, rss...); err != nil {
			t.Fatal(err)
		}
	}
	named, advised := []matstore.Strategy{matstore.LMParallel}, matstore.AdviseOrder
	namedJoin, advisedJoin := []matstore.RightStrategy{matstore.RightMaterialized}, matstore.JoinStrategies

	// Every query is built before the count, so that only the request's own
	// allocations are counted: the hits repeat one shape, the misses take a
	// new constant on each of AllocsPerRun's 51 calls.
	const calls = 51
	hotSel, hotJoin := sel(1200), join(100)
	sels, joins := make([]matstore.Query, calls), make([]matstore.JoinQuery, calls)
	for i := range sels {
		sels[i], joins[i] = sel(int64(1300+i)), join(int64(101+i))
	}
	hit := func(q matstore.Query, strats []matstore.Strategy, jq matstore.JoinQuery, rss []matstore.RightStrategy) (float64, float64) {
		mustSelect(q, strats...)
		mustJoin(jq, rss...)
		return testing.AllocsPerRun(calls-1, func() { mustSelect(q, strats...) }),
			testing.AllocsPerRun(calls-1, func() { mustJoin(jq, rss...) })
	}
	miss := func(strats []matstore.Strategy, rss []matstore.RightStrategy) (float64, float64) {
		i := 0
		s := testing.AllocsPerRun(calls-1, func() { mustSelect(sels[i], strats...); i++ })
		i = 0
		j := testing.AllocsPerRun(calls-1, func() { mustJoin(joins[i], rss...); i++ })
		return s, j
	}
	selectHit, joinHit := hit(hotSel, named, hotJoin, namedJoin)
	advSelectHit, advJoinHit := hit(sel(1250), advised, join(90), advisedJoin)
	selectMiss, joinMiss := miss(named, namedJoin)
	advSelectMiss, advJoinMiss := miss(advised, advisedJoin)
	t.Logf("allocations per request: select hit %.1f, join hit %.1f, select miss %.1f, join miss %.1f",
		selectHit, joinHit, selectMiss, joinMiss)
	t.Logf("allocations per advised request: select hit %.1f, join hit %.1f, select miss %.1f, join miss %.1f",
		advSelectHit, advJoinHit, advSelectMiss, advJoinMiss)
	if selectHit > hitBound || joinHit > hitBound || advSelectHit > hitBound || advJoinHit > hitBound {
		t.Errorf("a result-cache hit allocates %.1f (select) and %.1f (join), advised %.1f and %.1f, want at most %d",
			selectHit, joinHit, advSelectHit, advJoinHit, hitBound)
	}
	if selectMiss > selectMissBound || joinMiss > joinMissBound {
		t.Errorf("a miss allocates %.1f (select) and %.1f (join), want at most %d and %d",
			selectMiss, joinMiss, selectMissBound, joinMissBound)
	}
	if advSelectMiss > advSelectMissBound || advJoinMiss > advJoinMissBound {
		t.Errorf("an advised miss allocates %.1f (select) and %.1f (join), want at most %d and %d",
			advSelectMiss, advJoinMiss, advSelectMissBound, advJoinMissBound)
	}
}
