// Mixed-workload closed-loop driver: replays a paper-shaped query mix —
// selections and aggregations under all four materialization strategies plus
// the Figure 13 join under all three inner-table strategies, at several
// selectivities — through a service.Server with N concurrent closed-loop
// sessions. The service differential suite replays the same mix
// request-by-request against serial single-query execution; the server-path
// benchmarks drive it for throughput and tail-latency numbers; the same mix
// executed serially under EXPLAIN yields the observations CalibrateDB refits
// the cost-model constants from.
package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"matstore"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Request is one workload item: a selection/aggregation or a join.
type Request struct {
	Name   string
	IsJoin bool

	// Selection fields (IsJoin false).
	Projection string
	Query      matstore.Query
	Strategy   matstore.Strategy

	// Join fields (IsJoin true).
	Left, Right   string
	JoinQuery     matstore.JoinQuery
	RightStrategy matstore.RightStrategy
}

// Run executes the request through a server session (parallelism as granted
// by the admission governor) and returns the result with the service info.
func (r Request) Run(ctx context.Context, sess *service.Session) (*matstore.Result, service.Info, error) {
	if r.IsJoin {
		out, err := sess.Join(ctx, r.Left, r.Right, r.JoinQuery, r.RightStrategy)
		if err != nil {
			return nil, service.Info{}, err
		}
		return out.Res, out.Info, nil
	}
	out, err := sess.Select(ctx, r.Projection, r.Query, r.Strategy)
	if err != nil {
		return nil, service.Info{}, err
	}
	return out.Res, out.Info, nil
}

// RunSerial executes the request directly against a DB, serial
// chunk-at-a-time (parallelism 1) — the reference the differential suite
// pins served results against.
func (r Request) RunSerial(db *matstore.DB) (*matstore.Result, error) {
	if r.IsJoin {
		q := r.JoinQuery
		q.Parallelism = 1
		res, _, err := db.Join(r.Left, r.Right, q, r.RightStrategy)
		return res, err
	}
	q := r.Query
	q.Parallelism = 1
	res, _, err := db.Select(r.Projection, q, r.Strategy)
	return res, err
}

// Explain executes the request serially under EXPLAIN (per-node observation
// on) — the calibration path: serial execution keeps each node's observed
// self-time comparable to the model's one-worker prediction.
func (r Request) Explain(db *matstore.DB) (*matstore.Explanation, error) {
	if r.IsJoin {
		q := r.JoinQuery
		q.Parallelism = 1
		return db.ExplainJoin(r.Left, r.Right, q, r.RightStrategy)
	}
	q := r.Query
	q.Parallelism = 1
	return db.Explain(r.Projection, q, r.Strategy)
}

// Observe explains every request serially and pools the per-node (feature
// vector, observed time) observations: the input of a refit.
func Observe(db *matstore.DB, reqs []Request) ([]matstore.Observation, error) {
	var obs []matstore.Observation
	for _, r := range reqs {
		ex, err := r.Explain(db)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		obs = append(obs, ex.Observations()...)
	}
	return obs, nil
}

// CalibrateDB refits the DB's cost-model CPU constants from the workload:
// FitConstants solves for the constants that minimize modeled-vs-observed
// error over the workload's observations (never worse than the current
// constants on this pool), and the fit is installed on the DB for every
// subsequent advisor call, EXPLAIN annotation and admission grant.
func CalibrateDB(db *matstore.DB, reqs []Request) (matstore.CalibrationReport, error) {
	obs, err := Observe(db, reqs)
	if err != nil {
		return matstore.CalibrationReport{}, err
	}
	fitted, rep := matstore.FitConstants(obs, db.Constants())
	db.SetConstants(fitted)
	return rep, nil
}

// MixedWorkload builds the standard mix over the generated TPC-H-shaped
// dataset: the Section 4 selection at low/mid/high selectivity × all four
// strategies, an aggregation under both pipelined strategies, and the
// Figure 13 join at two selectivities × all three inner-table strategies.
// nCust is the customer cardinality (scales the join predicate).
func MixedWorkload(nCust int64) []Request {
	var reqs []Request
	for _, sel := range []float64{0.02, 0.5, 0.9} {
		for _, s := range []matstore.Strategy{
			matstore.EMPipelined, matstore.EMParallel, matstore.LMPipelined, matstore.LMParallel,
		} {
			reqs = append(reqs, Request{
				Name:       fmt.Sprintf("select/%v/sel=%v", s, sel),
				Projection: tpch.LineitemProj,
				Query: matstore.Query{
					Output: []string{tpch.ColShipdate, tpch.ColLinenum},
					Filters: []matstore.Filter{
						{Col: tpch.ColShipdate, Pred: matstore.LessThan(tpch.ShipdateForSelectivity(sel))},
						{Col: tpch.ColLinenum, Pred: matstore.LessThan(tpch.LinenumMax)},
					},
				},
				Strategy: s,
			})
		}
	}
	for _, s := range []matstore.Strategy{matstore.EMPipelined, matstore.LMPipelined} {
		reqs = append(reqs, Request{
			Name:       fmt.Sprintf("agg/%v", s),
			Projection: tpch.LineitemProj,
			Query: matstore.Query{
				Filters: []matstore.Filter{
					{Col: tpch.ColShipdate, Pred: matstore.LessThan(tpch.ShipdateForSelectivity(0.5))},
				},
				GroupBy: tpch.ColRetflag,
				AggCol:  tpch.ColQuantity,
				Agg:     matstore.Sum,
			},
			Strategy: s,
		})
	}
	for _, sel := range []float64{0.1, 0.9} {
		for _, rs := range []matstore.RightStrategy{
			matstore.RightMaterialized, matstore.RightMultiColumn, matstore.RightSingleColumn,
		} {
			reqs = append(reqs, Request{
				Name:   fmt.Sprintf("join/%v/sel=%v", rs, sel),
				IsJoin: true,
				Left:   tpch.OrdersProj,
				Right:  tpch.CustomerProj,
				JoinQuery: matstore.JoinQuery{
					LeftKey:     tpch.ColCustkey,
					LeftPred:    matstore.LessThan(tpch.CustkeyForSelectivity(sel, nCust)),
					LeftOutput:  []string{tpch.ColOrderShipdate},
					RightKey:    tpch.ColCustkey,
					RightOutput: []string{tpch.ColNationcode},
				},
				RightStrategy: rs,
			})
		}
	}
	return reqs
}

// WorkloadStats aggregates one closed-loop run.
type WorkloadStats struct {
	Requests        int64
	ResultCacheHits int64
	PlanCacheHits   int64
	BuildCacheHits  int64
	Wall            time.Duration
	// Per-request latency distribution tail.
	P50, P95, P99 time.Duration
}

// RunClosedLoop replays the mix through the server: sessions concurrent
// closed-loop clients each perform rounds full passes over reqs, starting at
// staggered offsets so different request shapes overlap in flight. The first
// error aborts the run; cancelling ctx aborts queued requests.
func RunClosedLoop(ctx context.Context, srv *service.Server, sessions, rounds int, reqs []Request) (WorkloadStats, error) {
	var stats WorkloadStats
	errs := make([]error, sessions)
	lats := make([][]time.Duration, sessions)
	infos := make([]WorkloadStats, sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sessions; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := srv.NewSession()
			off := c * len(reqs) / sessions
			for round := 0; round < rounds; round++ {
				for i := range reqs {
					req := reqs[(off+i)%len(reqs)]
					t := time.Now()
					_, info, err := req.Run(ctx, sess)
					if err != nil {
						errs[c] = fmt.Errorf("%s: %w", req.Name, err)
						return
					}
					lats[c] = append(lats[c], time.Since(t))
					infos[c].Requests++
					if info.ResultCacheHit {
						infos[c].ResultCacheHits++
					}
					if info.PlanCacheHit {
						infos[c].PlanCacheHits++
					}
					if info.BuildCacheHit {
						infos[c].BuildCacheHits++
					}
				}
			}
		}(c)
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	var all []time.Duration
	for c := range infos {
		stats.Requests += infos[c].Requests
		stats.ResultCacheHits += infos[c].ResultCacheHits
		stats.PlanCacheHits += infos[c].PlanCacheHits
		stats.BuildCacheHits += infos[c].BuildCacheHits
		all = append(all, lats[c]...)
	}
	stats.P50, stats.P95, stats.P99 = percentiles(all)
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// percentiles returns the p50/p95/p99 of the latency sample (zeros when
// empty) using the nearest-rank method.
func percentiles(lats []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rank := func(p float64) time.Duration {
		i := int(p*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}
