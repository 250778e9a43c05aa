// Command csmodel explores the analytical cost model: it prints per-strategy
// predicted costs across a selectivity sweep for the paper's selection and
// aggregation queries, and the advisor's choice at each point — the
// optimizer decision surface of Section 3.
//
// Usage:
//
//	csmodel                        # paper constants, paper-sized columns
//	csmodel -measure               # constants micro-measured on this host
//	csmodel -dir ./data -calibrate # constants refit by least squares over
//	                               # the mixed workload's observed node times
//	csmodel -dir ./data -enc rle   # derive column stats from a real dataset
//
// Every number is the price of the plan the strategy's builder assembles —
// over a literal statistics table at the paper's scale, or over the dataset's
// lineitem projection with -dir — the same walk Advise and EXPLAIN run.
package main

import (
	"flag"
	"fmt"
	"log"

	"matstore"
	"matstore/internal/bench"
	"matstore/internal/core"
	"matstore/internal/encoding"
	"matstore/internal/model"
	"matstore/internal/plan"
	"matstore/internal/tpch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("csmodel: ")
	dir := flag.String("dir", "", "derive column statistics from a dataset directory (optional)")
	scale := flag.Float64("scale", 0.04, "scale for -dir generation if missing")
	encFlag := flag.String("enc", "rle", "LINENUM encoding for -dir stats: plain|rle|bv")
	calibrate := flag.Bool("calibrate", false, "refit constants by least squares over the mixed workload's observed per-node times (needs -dir, generated at -scale if missing)")
	measure := flag.Bool("measure", false, "micro-measure constants on this host instead of Table 2 values")
	agg := flag.Bool("agg", false, "model the aggregation query instead of the selection")
	flag.Parse()

	consts := matstore.PaperConstants()
	if *measure {
		consts = matstore.Calibrate()
		fmt.Printf("measured constants: BIC=%.4f TICTUP=%.4f TICCOL=%.4f FC=%.4f µs\n\n",
			consts.BIC, consts.TICTUP, consts.TICCOL, consts.FC)
	}

	table, hot, enc := paperTable(), false, encoding.RLE
	if *dir != "" {
		env, err := bench.Setup(*dir, *scale, 42)
		if err != nil {
			log.Fatal(err)
		}
		defer env.Close()
		if enc, err = encoding.ParseKind(*encFlag); err != nil {
			log.Fatal(err)
		}
		lineitem, err := env.DB.Projection(tpch.LineitemProj)
		if err != nil {
			log.Fatal(err)
		}
		// The F=1 hot-pool configuration matching the measured steady state.
		table, hot = core.TableOf(lineitem), true
	}

	if *calibrate {
		if *dir == "" {
			log.Fatal("-calibrate refits from executed queries and needs -dir")
		}
		db, err := matstore.Open(*dir)
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		db.SetConstants(consts)
		nCust := int64(0)
		if p, err := db.Storage().Projection(tpch.CustomerProj); err == nil {
			if c, err := p.Column(tpch.ColCustkey); err == nil {
				nCust = c.TupleCount()
			}
		}
		rep, err := bench.CalibrateDB(db, bench.MixedWorkload(nCust))
		if err != nil {
			log.Fatal(err)
		}
		consts = db.Constants()
		fmt.Printf("calibrated over %d node observations: rms modeled-vs-observed error %.1fµs -> %.1fµs\n",
			rep.Observations, rep.PriorErrUS, rep.FittedErrUS)
		fmt.Printf("  prior:  BIC=%.4f TICTUP=%.4f TICCOL=%.4f FC=%.4f µs\n",
			rep.Prior.BIC, rep.Prior.TICTUP, rep.Prior.TICCOL, rep.Prior.FC)
		fmt.Printf("  fitted: BIC=%.4f TICTUP=%.4f TICCOL=%.4f FC=%.4f µs\n\n",
			rep.Fitted.BIC, rep.Fitted.TICTUP, rep.Fitted.TICCOL, rep.Fitted.FC)
	}

	kind := "selection"
	if *agg {
		kind = "aggregation"
	}
	fmt.Printf("predicted cost (ms) for the %s query, by strategy and selectivity:\n\n", kind)
	fmt.Printf("%-12s%16s%16s%16s%16s%18s\n", "selectivity",
		core.EMPipelined, core.EMParallel, core.LMPipelined, core.LMParallel, "advisor")
	exec := core.NewExecutor(nil, core.Options{})
	for _, sel := range bench.DefaultSelectivities {
		q := bench.SelectionQuery(enc, sel, *agg)
		costs := make([]model.Cost, len(core.AdviseOrder))
		by := map[core.Strategy]model.Cost{}
		for i, s := range core.AdviseOrder {
			pl, err := exec.BuildPlanOn(table, q, s)
			if err != nil {
				log.Fatal(err)
			}
			costs[i] = consts.Price(pl, hot).Cost
			by[s] = costs[i]
		}
		fmt.Printf("%-12.3f", sel)
		for _, s := range core.Strategies {
			fmt.Printf("%16.3f", by[s].Total()/1e3)
		}
		fmt.Printf("%18s\n", core.AdviseOrder[model.Cheapest(costs)])
	}
}

// paperTable models the paper's scale-10 lineitem projection, cold: 60M
// tuples sorted on (returnflag, shipdate, linenum), RLE shipdate and linenum
// with the Section 3.7 encoded sizes scaled up.
func paperTable() core.Table {
	const tuples = 60_000_000
	return core.StatsTable(tpch.LineitemProj, tuples, map[string]plan.ColStats{
		tpch.ColShipdate: {Blocks: 10, Tuples: tuples, RunLen: tuples / (3 * tpch.ShipdateDays),
			Min: 0, Max: tpch.ShipdateDays - 1, Distinct: tpch.ShipdateDays, SortRank: 2, Clusters: 3},
		tpch.ColLinenumRLE: {Blocks: 50, Tuples: tuples, RunLen: 8,
			Min: 1, Max: tpch.LinenumMax, Distinct: tpch.LinenumMax, SortRank: 3, Clusters: 3 * tpch.ShipdateDays},
	})
}
