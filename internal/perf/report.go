package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// ResultLine renders the one-line JSON object the benchmark contract asks
// for as the last line of standard output: exactly the keys correct,
// attempted, failed and metrics, each metric a value and a unit.
func (r *Result) ResultLine() (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = metric{m.Value, m.Unit}
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}

// ParseResultLine reads a result line back into a Result (the parent process
// of a multi-run collects its children's results this way).
func ParseResultLine(line string) (*Result, error) {
	var in struct {
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &in); err != nil {
		return nil, fmt.Errorf("perf: result line %q: %w", line, err)
	}
	return &Result{Attempted: in.Attempted, Failed: in.Failed, Metrics: in.Metrics}, nil
}

// Print writes the run's metrics by name, with unit and sample count.
func (r *Result) Print(w io.Writer) {
	kind, defs := "end-to-end, times at reference speed", EndToEnd
	if r.Trace {
		kind, defs = "per-layer (traced run), times wall-clock", PerLayer
	}
	fmt.Fprintf(w, "%s  seed %d  %s\n", r.Workload, r.Seed, kind)
	if r.SpeedFactor > 0 {
		fmt.Fprintf(w, "  host speed factor %.4f over the window: wall-clock times were that multiple of the ones below\n", r.SpeedFactor)
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || m.NA {
			continue
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-5s%s\n", d.Name, m.Value, m.Unit, n)
	}
	fmt.Fprintf(w, "  %-40s %14.4f %-5s  (%d failed of %d attempted)\n",
		"fail_share", r.FailShare(), "ratio", r.Failed, r.Attempted)
	if r.FirstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstFailure)
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.SpanFile)
	}
}

// Host records where a results file was measured.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Commit     string `json:"commit"`
	// GODEBUG is the runtime setting the measured processes ran under.
	GODEBUG string `json:"godebug"`
}

// ThisHost describes the current machine and checkout.
func ThisHost() Host {
	h := Host{NProc: runtime.NumCPU(), GOMAXPROCS: Procs(), Go: runtime.Version(), Commit: "unknown", CPU: "unknown", GODEBUG: GODEBUG}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// File is what csperf -out writes and csperf -compare reads: every run of an
// invocation, with the host it ran on. Claim is always null here: defining
// the benchmark claims no gain, and a change that does claim one states it
// in its own issue.
type File struct {
	Benchmark string    `json:"benchmark"`
	Claim     *string   `json:"claim"`
	Host      Host      `json:"host"`
	Seconds   float64   `json:"seconds"`
	Runs      []*Result `json:"runs"`
}

// WriteFile writes the results file.
func (f *File) WriteFile(path string) error {
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadFile reads a results file.
func ReadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &f, nil
}
