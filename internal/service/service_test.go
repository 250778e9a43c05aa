// Concurrent differential suite: the paper's core invariant — that
// materialization strategy, worker count and (now) cache/sharing choices are
// pure execution decisions — extended to the serving layer. A mixed workload
// (all four strategies + joins, varied selectivities) replayed through the
// server at sessions {1, 4, 8} × worker budgets {1, 4}, with and without the
// shared caches, must return byte-identical results to serial single-query
// execution; and the admission governor must never grant more workers than
// the configured budget. Runs under -race via `go test -race ./internal/...`
// (the 1-CPU CI container proves concurrency safety through the race
// detector and differential results, not wall time).
package service_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"matstore"
	"matstore/internal/bench"
	"matstore/internal/core"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

var (
	dataOnce sync.Once
	dataDir  string
	dataErr  error
)

const dataCustomers = 300 // customer rows at scale 0.002

func testData(t *testing.T) string {
	t.Helper()
	dataOnce.Do(func() {
		dataDir, dataErr = os.MkdirTemp("", "matstore-service-test")
		if dataErr != nil {
			return
		}
		dataErr = tpch.Generate(dataDir, tpch.Config{Scale: 0.002, Seed: 5})
	})
	if dataErr != nil {
		t.Fatal(dataErr)
	}
	return dataDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if dataDir != "" {
		os.RemoveAll(dataDir)
	}
	if shardedRoot != "" {
		os.RemoveAll(shardedRoot)
	}
	if keypartRoot != "" {
		os.RemoveAll(keypartRoot)
	}
	os.Exit(code)
}

// openDB opens the shared dataset with a small chunk size so the 12k-row
// tables split into many morsels at every worker count.
func openDB(t *testing.T) *matstore.DB {
	t.Helper()
	db, err := matstore.Open(testData(t), matstore.Options{Exec: core.Options{ChunkSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// newServer wraps a fresh DB handle (own caches, shared files).
func newServer(t *testing.T, cfg service.Config) *service.Server {
	t.Helper()
	return service.New(openDB(t), cfg)
}

// cacheConfig returns a server config with the execution caches (plan,
// build) on or off; the result cache stays off so cache tests observe real
// executions. fullConfig turns all three on.
func cacheConfig(budget, maxConcurrent int, caches bool) service.Config {
	cfg := service.Config{WorkerBudget: budget, MaxConcurrent: maxConcurrent, ResultCacheBytes: -1}
	if !caches {
		cfg.BuildCacheBytes = -1
		cfg.PlanCacheEntries = -1
	}
	return cfg
}

func fullConfig(budget, maxConcurrent int) service.Config {
	return service.Config{WorkerBudget: budget, MaxConcurrent: maxConcurrent}
}

// TestConcurrentMixedWorkloadDifferential is the acceptance suite: every
// served response must be byte-identical (row order included) to the serial
// single-query reference, at every (sessions, worker budget, caches)
// configuration, and the governor must never exceed the worker budget.
func TestConcurrentMixedWorkloadDifferential(t *testing.T) {
	ref := openDB(t)
	reqs := bench.MixedWorkload(dataCustomers)
	want := make([]*matstore.Result, len(reqs))
	for i, r := range reqs {
		res, err := r.RunSerial(ref)
		if err != nil {
			t.Fatalf("serial %s: %v", r.Name, err)
		}
		if i < 12 && res.NumRows() == 0 {
			t.Fatalf("serial %s: empty reference result", r.Name)
		}
		want[i] = res
	}

	for _, sessions := range []int{1, 4, 8} {
		for _, budget := range []int{1, 4} {
			for _, caches := range []bool{true, false} {
				name := fmt.Sprintf("sessions=%d/budget=%d/caches=%v", sessions, budget, caches)
				t.Run(name, func(t *testing.T) {
					cfg := cacheConfig(budget, 0, caches)
					if caches {
						cfg = fullConfig(budget, 0)
					}
					srv := newServer(t, cfg)
					var wg sync.WaitGroup
					errs := make([]error, sessions)
					for c := 0; c < sessions; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							sess := srv.NewSession()
							off := c * len(reqs) / sessions
							for i := range reqs {
								idx := (off + i) % len(reqs)
								res, info, err := reqs[idx].Run(context.Background(), sess)
								if err != nil {
									errs[c] = fmt.Errorf("%s: %w", reqs[idx].Name, err)
									return
								}
								if info.ResultCacheHit {
									// A cached response consumed no admission
									// grant at all.
									if info.Workers != 0 {
										errs[c] = fmt.Errorf("%s: result-cache hit granted %d workers, want 0",
											reqs[idx].Name, info.Workers)
										return
									}
								} else if info.Workers < 1 || info.Workers > budget {
									errs[c] = fmt.Errorf("%s: granted %d workers outside [1, %d]",
										reqs[idx].Name, info.Workers, budget)
									return
								}
								if !reflect.DeepEqual(res.Columns, want[idx].Columns) ||
									!reflect.DeepEqual(res.Cols, want[idx].Cols) {
									errs[c] = fmt.Errorf("%s: served result differs from serial reference", reqs[idx].Name)
									return
								}
							}
						}(c)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
					st := srv.Stats()
					if st.Admission.PeakWorkersInUse > budget {
						t.Errorf("peak workers in use %d exceeds budget %d", st.Admission.PeakWorkersInUse, budget)
					}
					if st.Admission.InFlight != 0 || st.Admission.WorkersInUse != 0 {
						t.Errorf("governor leaked: in_flight=%d workers_in_use=%d",
							st.Admission.InFlight, st.Admission.WorkersInUse)
					}
					// Every request either admitted to the worker pool or was
					// served from the result cache — never both, never neither.
					wantQueries := int64(sessions*len(reqs)) - st.ResultCache.Hits
					if st.Admission.Admitted != wantQueries || st.Admission.Completed != wantQueries {
						t.Errorf("admitted/completed = %d/%d, want %d (= requests - %d result-cache hits)",
							st.Admission.Admitted, st.Admission.Completed, wantQueries, st.ResultCache.Hits)
					}
					if caches && sessions > 1 && st.BuildCache.Hits == 0 {
						t.Errorf("repeated joins across %d sessions produced no build-cache hits", sessions)
					}
					if !caches && (st.BuildCache.Hits+st.BuildCache.Misses+st.PlanCache.Hits+
						st.PlanCache.Misses+st.ResultCache.Hits+st.ResultCache.Misses) != 0 {
						t.Errorf("disabled caches recorded traffic: %+v %+v %+v", st.BuildCache, st.PlanCache, st.ResultCache)
					}
				})
			}
		}
	}
}

// TestClosedLoopDriver smoke-runs the bench closed-loop driver: all requests
// complete, and the second round's joins hit both caches.
func TestClosedLoopDriver(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	reqs := bench.MixedWorkload(dataCustomers)
	stats, err := bench.RunClosedLoop(context.Background(), srv, 4, 2, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 * 2 * len(reqs)); stats.Requests != want {
		t.Errorf("requests = %d, want %d", stats.Requests, want)
	}
	if stats.BuildCacheHits == 0 || stats.PlanCacheHits == 0 {
		t.Errorf("closed loop produced no cache hits: %+v", stats)
	}
}

// TestPlanCacheSkipsBuildPlan pins the plan cache's contract: a repeated
// query shape does not call BuildPlan again (the PlanBuilds counter stands
// still), is reported as a hit, and still returns the identical result.
func TestPlanCacheSkipsBuildPlan(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	sess := srv.NewSession()
	q := matstore.Query{
		Output: []string{tpch.ColShipdate, tpch.ColLinenum},
		Filters: []matstore.Filter{
			{Col: tpch.ColShipdate, Pred: matstore.LessThan(1200)},
		},
	}
	first, err := sess.Select(context.Background(), tpch.LineitemProj, q, matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if first.Info.PlanCacheHit {
		t.Error("first execution reported a plan-cache hit")
	}
	builds := srv.Stats().PlanBuilds
	second, err := sess.Select(context.Background(), tpch.LineitemProj, q, matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Info.PlanCacheHit {
		t.Error("repeated query missed the plan cache")
	}
	if got := srv.Stats().PlanBuilds; got != builds {
		t.Errorf("repeated query called BuildPlan (%d -> %d)", builds, got)
	}
	if !reflect.DeepEqual(first.Res.Cols, second.Res.Cols) {
		t.Error("cached plan returned different result")
	}
	// A different shape (same columns, different bound) must miss.
	q.Filters[0].Pred = matstore.LessThan(1300)
	third, err := sess.Select(context.Background(), tpch.LineitemProj, q, matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if third.Info.PlanCacheHit {
		t.Error("different predicate bound hit the plan cache")
	}
}

// TestPlanCacheKeyNoDelimiterCollision: a column name containing the key
// delimiter must not collide with a multi-column shape — a collision would
// serve the cached two-column plan where the cold path returns an
// unknown-column error.
func TestPlanCacheKeyNoDelimiterCollision(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	sess := srv.NewSession()
	good := matstore.Query{
		Output:  []string{tpch.ColShipdate, tpch.ColLinenum},
		Filters: []matstore.Filter{{Col: tpch.ColShipdate, Pred: matstore.LessThan(400)}},
	}
	if _, err := sess.Select(context.Background(), tpch.LineitemProj, good, matstore.LMParallel); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Output = []string{tpch.ColShipdate + "," + tpch.ColLinenum}
	if _, err := sess.Select(context.Background(), tpch.LineitemProj, bad, matstore.LMParallel); err == nil {
		t.Fatal("malformed column name collided with a cached plan and was served")
	}
}

// joinReq is the repeated-join shape the build-cache tests share.
func joinReq() matstore.JoinQuery {
	return matstore.JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    matstore.LessThan(100),
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
	}
}

// TestBuildCacheHitOnRepeatedJoin: the second join over the same inner table
// reuses the retained partitioned hash side — and a different outer
// predicate still hits, because the build depends only on the inner side.
func TestBuildCacheHitOnRepeatedJoin(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	sess := srv.NewSession()
	first, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if first.Info.BuildCacheHit {
		t.Error("cold join reported a build-cache hit")
	}
	second, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Info.BuildCacheHit {
		t.Error("repeated join missed the build cache")
	}
	other := joinReq()
	other.LeftPred = matstore.LessThan(250)
	third, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, other, matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Info.BuildCacheHit {
		t.Error("join with different outer predicate missed the build cache")
	}
	// A different inner strategy builds a different table.
	fourth, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightSingleColumn)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Info.BuildCacheHit {
		t.Error("different right strategy shared a cached build")
	}
	st := srv.Stats().BuildCache
	if st.Hits < 2 || st.Misses != 2 {
		t.Errorf("build cache hits/misses = %d/%d, want >=2/2", st.Hits, st.Misses)
	}
	if st.Bytes <= 0 || st.Entries != 2 {
		t.Errorf("build cache bytes=%d entries=%d, want accounted bytes and 2 entries", st.Bytes, st.Entries)
	}
}

// TestBuildCacheInvalidationOnGenerationBump: invalidating the inner
// projection drops its cached builds, so the next join rebuilds.
func TestBuildCacheInvalidationOnGenerationBump(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	sess := srv.NewSession()
	if _, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized); err != nil {
		t.Fatal(err)
	}
	srv.InvalidateProjection(tpch.CustomerProj)
	st := srv.Stats().BuildCache
	if st.Invalidations != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("after invalidation: %+v, want 1 invalidation and an empty cache", st)
	}
	out, err := sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if out.Info.BuildCacheHit {
		t.Error("join after invalidation hit a stale build")
	}
	// Invalidating an unrelated projection leaves the rebuilt entry alone.
	srv.InvalidateProjection(tpch.LineitemProj)
	out, err = sess.Join(context.Background(), tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Info.BuildCacheHit {
		t.Error("unrelated invalidation evicted the customer build")
	}
}

// TestExplainThroughService: explain requests run through admission control
// and render both plan shapes.
func TestExplainThroughService(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	sess := srv.NewSession()
	ex, info, err := sess.Explain(context.Background(), tpch.LineitemProj, matstore.Query{
		Output:  []string{tpch.ColShipdate},
		Filters: []matstore.Filter{{Col: tpch.ColShipdate, Pred: matstore.LessThan(400)}},
	}, matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if info.Workers < 1 || info.Workers > 2 {
		t.Errorf("explain granted %d workers", info.Workers)
	}
	if ex.Tree == "" {
		t.Error("empty explain tree")
	}
	jex, _, err := sess.ExplainJoin(context.Background(), tpch.OrdersProj, tpch.CustomerProj, joinReq(), matstore.RightMultiColumn)
	if err != nil {
		t.Fatal(err)
	}
	if jex.JoinStats == nil {
		t.Error("join explain carried no join stats")
	}
}

// TestEstimateRacesServedPlans: the admission sizer prices a plan on every
// request while other requests run the plan-cache's shared tree of the same
// shape and a calibration pass swaps the constants. The estimate builds a
// tree of its own and the pricing walk writes nowhere, so under -race this
// must be silent — it would not be if estimates annotated the cached plan.
func TestEstimateRacesServedPlans(t *testing.T) {
	db := openDB(t)
	srv := service.New(db, cacheConfig(2, 8, true))
	sel := matstore.Query{
		Output: []string{tpch.ColShipdate, tpch.ColLinenum},
		Filters: []matstore.Filter{
			{Col: tpch.ColShipdate, Pred: matstore.LessThan(1200)},
			{Col: tpch.ColLinenum, Pred: matstore.LessThan(7)},
		},
	}
	join := joinReq()
	ctx := context.Background()
	want, err := srv.NewSession().Select(ctx, tpch.LineitemProj, sel, matstore.LMPipelined)
	if err != nil {
		t.Fatal(err)
	}
	wantJoin, err := srv.NewSession().Join(ctx, tpch.OrdersProj, tpch.CustomerProj, join, matstore.RightMultiColumn)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if c, err := db.EstimateSelectCost(tpch.LineitemProj, sel, matstore.LMPipelined); err != nil || c.Total() <= 0 {
					t.Errorf("EstimateSelectCost = %v, %v", c, err)
				}
				if c, err := db.EstimateJoinCost(tpch.OrdersProj, tpch.CustomerProj, join, matstore.RightMultiColumn); err != nil || c.Total() <= 0 {
					t.Errorf("EstimateJoinCost = %v, %v", c, err)
				}
				if (i+g)%4 == 0 {
					c := matstore.PaperConstants()
					c.FC *= 1 + float64(i%3)
					db.SetConstants(c)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := srv.NewSession()
			for i := 0; i < rounds/4; i++ {
				got, err := sess.Select(ctx, tpch.LineitemProj, sel, matstore.LMPipelined)
				if err != nil || !reflect.DeepEqual(got.Res.Cols, want.Res.Cols) {
					t.Errorf("served selection differs (err %v)", err)
				}
				gotJoin, err := sess.Join(ctx, tpch.OrdersProj, tpch.CustomerProj, join, matstore.RightMultiColumn)
				if err != nil || !reflect.DeepEqual(gotJoin.Res.Cols, wantJoin.Res.Cols) {
					t.Errorf("served join differs (err %v)", err)
				}
			}
		}()
	}
	wg.Wait()
	if st := srv.Stats(); st.PlanCache.Hits == 0 {
		t.Error("the served shapes never shared a cached plan")
	}
}
