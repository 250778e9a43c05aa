// Command csquery runs a single selection/aggregation query against a
// generated database under a chosen materialization strategy and prints the
// first rows plus execution statistics.
//
// Usage:
//
//	csquery -dir ./data -proj lineitem -out shipdate,linenum \
//	        -where 'shipdate<400,linenum<7' -strategy lm-parallel
//	csquery -dir ./data -proj lineitem -where 'shipdate<400' \
//	        -groupby shipdate -sum linenum -strategy lm-pipelined
//	csquery ... -strategy advise   # let the cost model pick
//	csquery ... -parallelism 0     # morsel-parallel across all CPUs
//	csquery ... -explain           # print the physical plan, modeled vs observed
//
// Join mode probes -proj (outer) against -join (inner) on -leftkey/-rightkey,
// with the inner side materialized per -rightstrategy; -where may carry one
// predicate over the outer join key (the paper's Section 4.3 experiment):
//
//	csquery -dir ./data -proj orders -join customer -leftkey custkey \
//	        -rightkey custkey -out shipdate -rightout nationcode \
//	        -where 'custkey<200' -rightstrategy right-singlecolumn -explain
//
// -spill-budget-kb caps the resident build side: over-budget radix
// partitions are only counted at build time and rebuilt one at a time from
// the stored key column (Grace spill without temp files), with results
// byte-identical to the in-memory build. The "spill:" line's rescan_bytes is
// the bytes of (key, position) entries the build left to that rescan.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"matstore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("csquery: ")
	dir := flag.String("dir", "./data", "database directory")
	proj := flag.String("proj", "lineitem", "projection name")
	out := flag.String("out", "", "comma-separated output columns")
	where := flag.String("where", "", "comma-separated predicates, e.g. 'shipdate<400,linenum<7'")
	groupby := flag.String("groupby", "", "GROUP BY column (with -sum)")
	sum := flag.String("sum", "", "aggregated column (with -groupby)")
	aggFn := flag.String("agg", "sum", "aggregate function: sum|count|avg|min|max")
	strategy := flag.String("strategy", "lm-parallel", "em-pipelined|em-parallel|lm-pipelined|lm-parallel|advise")
	parallelism := flag.Int("parallelism", 1, "morsel-parallel workers (0 = one per CPU, 1 = serial)")
	limit := flag.Int("limit", 10, "rows to keep and print (0 = every row); tuples_out still counts them all")
	explain := flag.Bool("explain", false, "print the physical plan with modeled vs. observed per-node stats instead of rows")
	joinProj := flag.String("join", "", "inner projection: join -proj (outer) against it")
	leftKey := flag.String("leftkey", "", "outer join key column (with -join)")
	rightKey := flag.String("rightkey", "", "inner join key column (with -join)")
	rightOut := flag.String("rightout", "", "comma-separated inner output columns (with -join)")
	rightStrategy := flag.String("rightstrategy", "right-materialized", "inner-table materialization: right-materialized|right-multicolumn|right-singlecolumn")
	advise := flag.Bool("advise", false, "join mode: let the Section 4.3 cost terms pick the inner-table strategy")
	spillKB := flag.Int64("spill-budget-kb", 0, "join mode: cap the resident build side at this many KiB; over-budget partitions are rebuilt one at a time from the stored key column (0 = in-memory build)")
	flag.Parse()

	db, err := matstore.Open(*dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	fn, err := matstore.ParseAggFunc(*aggFn)
	if err != nil {
		log.Fatal(err)
	}
	filters, err := matstore.ParseWhere(*where)
	if err != nil {
		log.Fatal(err)
	}

	if *joinProj != "" {
		// Selection-only flags would be silently ignored in join mode;
		// reject them instead of returning surprising output.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "groupby", "sum", "agg", "strategy":
				log.Fatalf("-%s does not apply in join mode (-join)", f.Name)
			}
		})
		runJoin(db, *proj, *joinProj, *leftKey, *rightKey, *out, *rightOut,
			*rightStrategy, filters, *parallelism, *limit, *explain, *advise, *spillKB<<10)
		return
	}
	if *spillKB != 0 {
		log.Fatal("-spill-budget-kb applies only in join mode (-join)")
	}
	if *advise {
		log.Fatal("-advise applies only in join mode (-join); use -strategy advise for selections")
	}

	q := matstore.Query{GroupBy: *groupby, AggCol: *sum, Agg: fn, Limit: *limit}
	if *out != "" {
		q.Output = strings.Split(*out, ",")
	}
	q.Filters = filters
	q.Parallelism = *parallelism

	var s matstore.Strategy
	if *strategy == "advise" {
		adv, err := db.AdviseParallel(*proj, q, *parallelism)
		if err != nil {
			log.Fatal(err)
		}
		s = adv.Best
		fmt.Printf("advisor chose %v; predicted costs at parallelism=%d:\n", s, *parallelism)
		for _, st := range matstore.Strategies {
			fmt.Printf("  %-14v %s\n", st, adv.Costs[st])
		}
	} else {
		if s, err = matstore.ParseStrategy(*strategy); err != nil {
			log.Fatal(err)
		}
	}

	if *explain {
		ex, err := db.Explain(*proj, q, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(ex)
		return
	}

	res, stats, err := db.Select(*proj, q, s)
	if err != nil {
		log.Fatal(err)
	}
	printRows(res)
	fmt.Printf("\nstrategy=%v wall=%v workers=%d morsels=%d tuples_out=%d tuples_constructed=%d positions=%d chunks_skipped=%d\n",
		stats.Strategy, stats.Wall, stats.Workers, stats.Morsels, stats.TuplesOut,
		stats.TuplesConstructed, stats.PositionsMatched, stats.ChunksSkipped)
	consts := matstore.PaperConstants()
	simIO := stats.Buffer.SimulatedIO(1,
		time.Duration(consts.SEEK)*time.Microsecond,
		time.Duration(consts.READ)*time.Microsecond)
	fmt.Printf("buffer: reads=%d hits=%d seeks=%d (modelled cold-disk I/O: %v)\n",
		stats.Buffer.Reads, stats.Buffer.Hits, stats.Buffer.Seeks, simIO)
}

// runJoin executes (or explains) the join mode: outer ⋈ inner on the key
// columns, inner side materialized per the right strategy (or, with advise,
// per the cost model's Figure 13 pick).
func runJoin(db *matstore.DB, outer, inner, leftKey, rightKey, out, rightOut, rightStrategy string, filters []matstore.Filter, parallelism, limit int, explain, advise bool, spillBudget int64) {
	if leftKey == "" || rightKey == "" {
		log.Fatal("join mode needs -leftkey and -rightkey")
	}
	var rs matstore.RightStrategy
	var err error
	if !advise {
		if rs, err = matstore.ParseRightStrategy(rightStrategy); err != nil {
			log.Fatal(err)
		}
	}
	q := matstore.JoinQuery{
		LeftKey:          leftKey,
		LeftPred:         matstore.MatchAll,
		RightKey:         rightKey,
		Parallelism:      parallelism,
		SpillBudgetBytes: spillBudget,
		Limit:            limit,
	}
	if out != "" {
		q.LeftOutput = strings.Split(out, ",")
	}
	if rightOut != "" {
		q.RightOutput = strings.Split(rightOut, ",")
	}
	switch len(filters) {
	case 0:
	case 1:
		if filters[0].Col != leftKey {
			log.Fatalf("join -where must predicate the outer join key %q, got %q", leftKey, filters[0].Col)
		}
		q.LeftPred = filters[0].Pred
	default:
		log.Fatal("join mode accepts at most one -where predicate (over the outer join key)")
	}

	if advise {
		adv, err := db.AdviseJoin(outer, inner, q)
		if err != nil {
			log.Fatal(err)
		}
		rs = adv.Best
		fmt.Printf("advisor chose %v; predicted join costs:\n", rs)
		for _, s := range matstore.JoinStrategies {
			fmt.Printf("  %-20v %s\n", s, adv.Costs[s])
		}
	}

	if explain {
		ex, err := db.ExplainJoin(outer, inner, q, rs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(ex)
		return
	}
	res, stats, err := db.Join(outer, inner, q, rs)
	if err != nil {
		log.Fatal(err)
	}
	printRows(res)
	fmt.Printf("\nouter=%v right=%v wall=%v workers=%d morsels=%d partitions=%d build_workers=%d\n",
		stats.Strategy, stats.RightStrategy, stats.Wall, stats.Workers, stats.Morsels,
		stats.Join.Partitions, stats.Join.BuildWorkers)
	fmt.Printf("probes=%d tuples_out=%d build_tuples=%d deferred_fetches=%d\n",
		stats.Join.LeftProbes, stats.TuplesOut, stats.Join.RightBuildTuples, stats.Join.DeferredFetches)
	if stats.Join.Spilled {
		fmt.Printf("spill: partitions=%d/%d rescan_bytes=%d probes=%d\n",
			stats.Join.SpilledParts, stats.Join.Partitions, stats.Join.SpillBytes, stats.Join.SpillProbes)
	}
}

// printRows prints the result header and the rows the run kept (the query's
// Limit), then how many it produced when that is more.
func printRows(res *matstore.Result) {
	fmt.Println(strings.Join(res.Columns, "\t"))
	shown := res.NumRows()
	for i := 0; i < shown; i++ {
		row := res.Row(i)
		parts := make([]string, len(row))
		for c, v := range row {
			parts[c] = strconv.FormatInt(v, 10)
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	if int64(shown) < res.Total {
		fmt.Printf("... (%d rows total)\n", res.Total)
	}
}
