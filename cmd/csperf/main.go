// Command csperf is the repository's benchmark: five workloads, six
// end-to-end metrics on each (times at reference speed: divided by the host's
// speed factor, which the run measures alongside), and with -trace a per-layer
// budget. See internal/perf/README.md for what it measures and why.
//
//	go run ./cmd/csperf                      # every workload, end to end
//	go run ./cmd/csperf -trace               # … and the traced per-layer runs
//	go run ./cmd/csperf -runs 5 -out a.json  # five runs of each, added to a.json
//	go run ./cmd/csperf -compare a.json b.json
//
// With -workload it runs that one workload in this process and ends its
// standard output with the one-line JSON result the benchmark contract
// (BENCHMARK.json) asks for; without, it starts one such process per
// workload and run, so that mem_held_p95_mb is per workload. Those processes
// run under GODEBUG=madvdontneed=0 (perf.GODEBUG says why), as do bench.sh's;
// a bare -workload run keeps the caller's environment.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"matstore/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// joinTraceValue turns "-trace 0" into "-trace=0": the contract passes the
// flag with a value, and a boolean flag would otherwise take "0" for the
// first positional argument.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, args[i]+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("csperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: each in a process of its own)")
	seed := fs.Int64("seed", 1, "seed of the request stream (the data is always seed 42)")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Bool("trace", false, "also make the traced runs and print the per-layer metrics")
	runs := fs.Int("runs", 1, "runs of each workload, with seeds seed, seed+1, …")
	out := fs.String("out", "", "add every run, and the host, to this results file")
	dir := fs.String("dir", ".bench_build", "directory for generated data and span files")
	compare := fs.Bool("compare", false, "compare two -out files: csperf -compare parent.json change.json")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "csperf: -compare takes two results files")
			return 2
		}
		var files [2]*perf.File
		for i := range files {
			f, err := perf.ReadFile(fs.Arg(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "csperf:", err)
				return 2
			}
			files[i] = f
		}
		if s := perf.Compare(os.Stdout, files[0], files[1]); s.Regressed+s.Unresolved+s.ExactDiffer+len(s.SettingsDiffer) > 0 {
			return 1
		}
		return 0
	}

	if *workload != "" {
		res, err := perf.Run(perf.Config{Workload: *workload, Seed: *seed, Seconds: *seconds,
			Trace: *trace, Dir: *dir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "csperf:", err)
			return 1
		}
		res.Print(os.Stdout)
		line, err := res.ResultLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "csperf:", err)
			return 1
		}
		fmt.Println(line)
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "csperf:", err)
		return 1
	}
	file := &perf.File{Benchmark: "csperf", Host: perf.ThisHost(), Seconds: *seconds}
	if *out != "" {
		// Add to a file that is already there, so that the runs of a paired
		// comparison, made alternately on two checkouts, collect in one file
		// per side.
		if prev, err := perf.ReadFile(*out); err == nil {
			file.Runs = prev.Runs
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "csperf:", err)
			return 1
		}
	}
	code := 0
	for i := 0; i < *runs; i++ {
		for _, w := range perf.Workloads {
			for _, traced := range []bool{false, true} {
				if traced && !*trace {
					continue
				}
				res, err := child(self, w, *seed+int64(i), *seconds, traced, *dir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "csperf: %s: %v\n", w, err)
					code = 1
					continue
				}
				if res.Failed > 0 {
					code = 1
				}
				file.Runs = append(file.Runs, res)
			}
		}
	}
	if *out != "" {
		if err := file.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "csperf:", err)
			return 1
		}
	}
	return code
}

// child runs one workload in a process of its own, relays its report and
// returns the result parsed from its last line.
func child(self, workload string, seed int64, seconds float64, traced bool, dir string) (*perf.Result, error) {
	cmd := exec.Command(self, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(traced),
		"-dir", dir)
	cmd.Env = append(os.Environ(), "GODEBUG="+perf.GODEBUG)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Every line but the last is the child's report; the last is its result.
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	res, err := perf.ParseResultLine(last)
	if err != nil {
		if waitErr != nil {
			return nil, waitErr
		}
		return nil, err
	}
	res.Workload, res.Seed, res.Trace = workload, seed, traced
	return res, nil
}
