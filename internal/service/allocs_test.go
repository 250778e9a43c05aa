package service_test

import (
	"context"
	"testing"

	"matstore"
	"matstore/internal/tpch"
)

// TestServedRequestAllocs pins what a served request allocates on the
// service's own path. A result-cache hit allocates its reply and nothing for
// the plan, price, admission or run it skips (2 allocations). A miss builds
// one plan, prices it in one walk — its cost and a join's build-side bytes —
// admits on that price and runs it: a selection miss and a join miss
// (distinct constants, a 100-row cap, one worker, the join's hash side a
// build-cache hit) measured 101 and 72 allocations (76 for the join under
// the race detector). The bounds are the measurements plus a tenth.
func TestServedRequestAllocs(t *testing.T) {
	const (
		hitBound        = 2
		selectMissBound = 111
		joinMissBound   = 79
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
	mustSelect := func(q matstore.Query) {
		if _, err := sess.Select(ctx, tpch.LineitemProj, q, matstore.LMParallel); err != nil {
			t.Fatal(err)
		}
	}
	mustJoin := func(q matstore.JoinQuery) {
		if _, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized); err != nil {
			t.Fatal(err)
		}
	}

	// Every query is built before the count, so that only the request's own
	// allocations are counted: the hits repeat one shape, the misses take a
	// new constant on each of AllocsPerRun's 51 calls.
	const calls = 51
	hotSel, hotJoin := sel(1200), join(100)
	sels, joins := make([]matstore.Query, calls), make([]matstore.JoinQuery, calls)
	for i := range sels {
		sels[i], joins[i] = sel(int64(1300+i)), join(int64(101+i))
	}
	mustSelect(hotSel)
	mustJoin(hotJoin)
	selectHit := testing.AllocsPerRun(calls-1, func() { mustSelect(hotSel) })
	joinHit := testing.AllocsPerRun(calls-1, func() { mustJoin(hotJoin) })
	i := 0
	selectMiss := testing.AllocsPerRun(calls-1, func() { mustSelect(sels[i]); i++ })
	i = 0
	joinMiss := testing.AllocsPerRun(calls-1, func() { mustJoin(joins[i]); i++ })
	t.Logf("allocations per request: select hit %.1f, join hit %.1f, select miss %.1f, join miss %.1f",
		selectHit, joinHit, selectMiss, joinMiss)
	if selectHit > hitBound || joinHit > hitBound {
		t.Errorf("a result-cache hit allocates %.1f (select) and %.1f (join), want at most %d", selectHit, joinHit, hitBound)
	}
	if selectMiss > selectMissBound || joinMiss > joinMissBound {
		t.Errorf("a miss allocates %.1f (select) and %.1f (join), want at most %d and %d",
			selectMiss, joinMiss, selectMissBound, joinMissBound)
	}
}
