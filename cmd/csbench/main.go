// Command csbench regenerates the paper's evaluation: Table 2 and Figures
// 10–13, printing each as a text table (or CSV) of runtime versus selectivity
// per strategy.
//
// Usage:
//
//	csbench -dir ./benchdata -scale 0.04 -exp all
//	csbench -exp fig11 -enc bv -points 21
//	csbench -exp fig13 -csv > fig13.csv
//	csbench -exp fig10 -calibrate   # Figure 10's model line on this host's constants
//
// Table 2's "this host" column, and the constants -calibrate prices Figure 10
// with, are the model's CPU constants refit by non-negative least squares to
// the mixed workload's observed per-node times on the dataset (the same fit
// csmodel -calibrate and csserve -calibrate install).
//
// The dataset is generated on first use (a marker file keyed by scale and
// seed prevents regeneration).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"matstore/internal/bench"
	"matstore/internal/encoding"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("csbench: ")
	dir := flag.String("dir", "./benchdata", "dataset directory (generated if missing)")
	scale := flag.Float64("scale", 0.04, "TPC-H scale factor for the dataset")
	seed := flag.Uint64("seed", 42, "generator seed")
	exp := flag.String("exp", "all", "experiment: table2|fig10|fig11|fig12|fig13|all")
	encFlag := flag.String("enc", "", "restrict fig11/fig12 to one LINENUM encoding: plain|rle|bv")
	points := flag.Int("points", len(bench.DefaultSelectivities), "number of selectivity points (2..)")
	runs := flag.Int("runs", 3, "timed repetitions per point (minimum is reported)")
	parallelism := flag.Int("parallelism", 1, "morsel-parallel workers per query (0 = one per CPU, 1 = the paper's serial execution)")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	calibrate := flag.Bool("calibrate", false, "refit the model constants to this host (the mixed workload's observed per-node times) for fig10 predictions")
	flag.Parse()

	env, err := bench.Setup(*dir, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	env.Runs = *runs
	env.Parallelism = *parallelism
	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	if *calibrate || want("table2") {
		host, err := env.Table2()
		if err != nil {
			log.Fatal(err)
		}
		if *calibrate {
			env.Constants = host
		}
		if want("table2") {
			bench.RenderTable2(os.Stdout, host)
			fmt.Println()
		}
	}

	sels := selPoints(*points)
	emit := func(f bench.Figure) {
		if *csv {
			f.CSV(os.Stdout)
		} else {
			f.Render(os.Stdout)
			lo, hi := bench.CrossoverCheck(f)
			fmt.Printf("shape: lowest-selectivity winner=%q, highest-selectivity winner=%q\n\n", lo, hi)
		}
	}

	encodings := []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector}
	if *encFlag != "" {
		k, err := encoding.ParseKind(*encFlag)
		if err != nil {
			log.Fatal(err)
		}
		encodings = []encoding.Kind{k}
	}

	if want("fig10") {
		lm, em, err := env.Fig10(sels)
		if err != nil {
			log.Fatal(err)
		}
		emit(lm)
		emit(em)
	}
	if want("fig11") {
		for _, k := range encodings {
			fig, err := env.Fig11(k, sels)
			if err != nil {
				log.Fatal(err)
			}
			emit(fig)
		}
	}
	if want("fig12") {
		for _, k := range encodings {
			fig, err := env.Fig12(k, sels)
			if err != nil {
				log.Fatal(err)
			}
			emit(fig)
		}
	}
	if want("fig13") {
		fig, err := env.Fig13(sels)
		if err != nil {
			log.Fatal(err)
		}
		emit(fig)
	}
}

// selPoints spreads n selectivities over (0, 1].
func selPoints(n int) []float64 {
	if n < 2 {
		n = 2
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / float64(n-1)
		if out[i] == 0 {
			out[i] = 0.001
		}
	}
	return out
}
