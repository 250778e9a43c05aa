package perf

import (
	"context"
	"time"

	"matstore"
	"matstore/internal/datasource"
	"matstore/internal/kernels"
	"matstore/internal/operators"
	"matstore/internal/positions"
	"matstore/internal/pred"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// Probes are fixed-iteration timed calls into the public entry points of
// single layers, over the generated columns. They use only functions the
// ROADMAP does not schedule for deletion, so that the simplicity work ahead
// never has to edit the benchmark. Each probe is reported in the traced run
// of its home workload, as a median over probeReps repetitions.
const probeReps = 7

// timeMedian runs f probeReps times and returns the median duration in
// nanoseconds divided by units.
func timeMedian(units int64, f func() error) (float64, error) {
	ns := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds()))
	}
	return Median(ns) / float64(units), nil
}

// sink keeps probe results alive, so that the compiler cannot drop the calls.
var sink int64

func column(db *matstore.DB, proj, col string) (*storage.Column, error) {
	p, err := db.Storage().Projection(proj)
	if err != nil {
		return nil, err
	}
	return p.Column(col)
}

func values(c *storage.Column) ([]int64, error) {
	mc, err := c.Window(c.Extent())
	if err != nil {
		return nil, err
	}
	return mc.Decompress(nil), nil
}

// selectProbes times the layers under a selection: scan kernel, the three
// encodings' filters, block windows and gathers, position intersection,
// aggregation, plan building and the advisor.
func selectProbes(db *matstore.DB, set func(name string, v float64)) error {
	half := pred.LessThan(tpch.ShipdateForSelectivity(0.5))
	shipdate, err := column(db, tpch.LineitemProj, tpch.ColShipdate)
	if err != nil {
		return err
	}
	ship, err := values(shipdate)
	if err != nil {
		return err
	}
	n := int64(len(ship))

	bm := positions.NewBitmap(0, n)
	v, err := timeMedian(n, func() error {
		kernels.FilterIntoBitmap(bm, 0, ship, pred.Compile(half))
		return nil
	})
	if err != nil {
		return err
	}
	sink += bm.Count()
	set("kernels.filter_ns_per_value", v)

	linenumBelow := pred.LessThan(4)
	var lineSet positions.Set
	for _, enc := range []struct{ metric, col string }{
		{"encoding.filter_plain_ns_per_value", tpch.ColLinenum},
		{"encoding.filter_rle_ns_per_value", tpch.ColLinenumRLE},
		{"encoding.filter_bv_ns_per_value", tpch.ColLinenumBV},
	} {
		c, err := column(db, tpch.LineitemProj, enc.col)
		if err != nil {
			return err
		}
		mc, err := c.Window(c.Extent())
		if err != nil {
			return err
		}
		if v, err = timeMedian(n, func() error {
			lineSet = mc.Filter(linenumBelow)
			return nil
		}); err != nil {
			return err
		}
		set(enc.metric, v)
	}

	quantity, err := column(db, tpch.LineitemProj, tpch.ColQuantity)
	if err != nil {
		return err
	}
	if v, err = timeMedian(int64(quantity.NumBlocks()), func() error {
		mc, err := quantity.Window(quantity.Extent())
		if err == nil {
			sink += mc.Covering().End
		}
		return err
	}); err != nil {
		return err
	}
	set("storage.window_us_per_block", v/1e3)

	var dst []int64
	if v, err = timeMedian(lineSet.Count(), func() error {
		dst, err = quantity.GatherAt(lineSet, dst[:0])
		return err
	}); err != nil {
		return err
	}
	set("storage.gather_ns_per_pos", v)

	// Bitmap × bitmap and ranges × bitmap, the two intersections LM-parallel
	// plans perform over SHIPDATE (sorted within RETURNFLAG: ranges) and
	// LINENUM (unsorted: bitmap).
	extent := positions.Range{Start: 0, End: n}
	lineBits := positions.ToBitmap(lineSet, extent)
	shipRanges := positions.ToRanges(bm)
	if v, err = timeMedian(2*n/1000, func() error {
		sink += positions.And(bm, lineBits).Count()
		sink += positions.And(shipRanges, lineBits).Count()
		return nil
	}); err != nil {
		return err
	}
	set("positions.and_ns_per_kpos", v)

	retflag, err := column(db, tpch.LineitemProj, tpch.ColRetflag)
	if err != nil {
		return err
	}
	keys, err := values(retflag)
	if err != nil {
		return err
	}
	vals, err := values(quantity)
	if err != nil {
		return err
	}
	if v, err = timeMedian(n, func() error {
		agg := operators.NewAggregator(operators.AggSum)
		agg.AddBatch(keys, vals)
		sink += int64(agg.Groups())
		return nil
	}); err != nil {
		return err
	}
	set("operators.agg_ns_per_tuple", v)

	li, err := db.Storage().Projection(tpch.LineitemProj)
	if err != nil {
		return err
	}
	q := matstore.Query{
		Output: []string{tpch.ColShipdate, tpch.ColLinenum},
		Filters: []matstore.Filter{{Col: tpch.ColShipdate, Pred: half},
			{Col: tpch.ColLinenum, Pred: pred.LessThan(tpch.LinenumMax)}},
	}
	const builds = 200
	if v, err = timeMedian(builds*int64(len(matstore.Strategies)), func() error {
		for i := 0; i < builds; i++ {
			for _, s := range matstore.Strategies {
				if _, err := db.Exec().BuildPlan(li, q, s); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	set("core.plan_build_select_us", v/1e3)

	if v, err = timeMedian(builds, func() error {
		for i := 0; i < builds; i++ {
			adv, err := db.Advise(tpch.LineitemProj, q)
			if err != nil {
				return err
			}
			sink += int64(adv.Best)
		}
		return nil
	}); err != nil {
		return err
	}
	set("model.advise_us", v/1e3)
	return nil
}

// joinProbes times the layers under a join: the radix build at one worker
// and at GOMAXPROCS, the probe, the out-of-order fetch of the deferred
// strategy, and join plan building.
func joinProbes(db *matstore.DB, procs int, set func(name string, v float64)) error {
	custkey, err := column(db, tpch.CustomerProj, tpch.ColCustkey)
	if err != nil {
		return err
	}
	nation, err := column(db, tpch.CustomerProj, tpch.ColNationcode)
	if err != nil {
		return err
	}
	payload := []*storage.Column{nation}
	names := []string{tpch.ColNationcode}
	// One build of the 15k-row inner table takes about 2 ms, too little to
	// time alone.
	const hashBuilds = 10
	var rt *operators.PartitionedTable
	for _, b := range []struct {
		metric  string
		workers int
	}{{"operators.build_w1_ns_per_tuple", 1}, {"operators.build_wN_ns_per_tuple", procs}} {
		v, err := timeMedian(hashBuilds*custkey.TupleCount(), func() error {
			for i := 0; i < hashBuilds && err == nil; i++ {
				rt, err = operators.BuildPartitioned(custkey, payload, names,
					operators.RightMaterialized, datasource.DefaultChunkSize, b.workers, 0)
			}
			return err
		})
		if err != nil {
			return err
		}
		set(b.metric, v)
	}

	orderKey, err := column(db, tpch.OrdersProj, tpch.ColCustkey)
	if err != nil {
		return err
	}
	keys, err := values(orderKey)
	if err != nil {
		return err
	}
	var matched []int64
	v, err := timeMedian(int64(len(keys)), func() error {
		matched = matched[:0]
		for _, k := range keys {
			matched = append(matched, rt.Probe(k)...)
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("operators.probe_ns_per_key", v)

	var dst []int64
	if v, err = timeMedian(int64(len(matched)), func() error {
		dst, err = nation.GatherUnordered(matched, dst[:0])
		return err
	}); err != nil {
		return err
	}
	set("storage.gather_unordered_ns_per_pos", v)

	orders, err := db.Storage().Projection(tpch.OrdersProj)
	if err != nil {
		return err
	}
	customer, err := db.Storage().Projection(tpch.CustomerProj)
	if err != nil {
		return err
	}
	jq := matstore.JoinQuery{
		LeftKey: tpch.ColCustkey, LeftPred: pred.LessThan(custkey.TupleCount() / 2),
		LeftOutput: []string{tpch.ColOrderShipdate},
		RightKey:   tpch.ColCustkey, RightOutput: names,
	}
	const builds = 200
	if v, err = timeMedian(builds*int64(len(matstore.JoinStrategies)), func() error {
		for i := 0; i < builds; i++ {
			for _, rs := range matstore.JoinStrategies {
				if _, err := db.Exec().BuildJoinPlan(orders, customer, jq, rs); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	set("core.plan_build_join_us", v/1e3)
	return nil
}

// sessionProbe times Session.Select on a resident result: the result-cache
// path of serve_hot without HTTP or JSON.
func (e *env) sessionProbe(set func(name string, v float64)) error {
	req := lineitemSelection(tpch.ShipdateForSelectivity(0.01), strategyNames[0], 0)
	q, strat, _, err := selectQuery(req)
	if err != nil {
		return err
	}
	sess := e.srv.NewSession()
	ctx := context.Background()
	if _, err := sess.Select(ctx, req.Projection, q, strat); err != nil {
		return err
	}
	const hits = 2000
	v, err := timeMedian(hits, func() error {
		for i := 0; i < hits; i++ {
			out, err := sess.Select(ctx, req.Projection, q, strat)
			if err != nil {
				return err
			}
			sink += int64(out.Res.NumRows())
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("service.session_hit_us", v/1e3)
	return nil
}
