package perf

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func scheduleBytes(t *testing.T, workload string, seed int64, passes int) []byte {
	t.Helper()
	s, err := NewSchedule(workload, seed, 1500)
	if err != nil {
		t.Fatal(err)
	}
	var all []*Op
	for i := 0; i < passes; i++ {
		all = append(all, s.NextPass()...)
	}
	raw, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads {
		a, b := scheduleBytes(t, w, 7, 3), scheduleBytes(t, w, 7, 3)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different schedules", w)
		}
		if c := scheduleBytes(t, w, 8, 3); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w)
		}
	}
	if _, err := NewSchedule("no_such_workload", 1, 1500); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

func TestDistinctConstantSchedulesNeverRepeatAConstant(t *testing.T) {
	for _, w := range []string{ServeCold, CoordMixed} {
		s, err := NewSchedule(w, 3, 1500)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{} // "column<constant"
		passes := 0
		for pass := s.NextPass(); pass != nil; pass = s.NextPass() {
			passes++
			for _, op := range pass {
				// A selection's second predicate is the fixed LINENUM < 7.
				c := ""
				if op.Query != nil {
					c = op.Query.Where[0]
				} else {
					c = op.Join.Where[0]
				}
				if seen[c] {
					t.Fatalf("%s: %q appears twice in one schedule", w, c)
				}
				seen[c] = true
			}
		}
		if passes < 100 {
			t.Errorf("%s: the schedule ends after %d passes", w, passes)
		}
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	samples := make([]float64, 199)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if _, err := Percentile(samples, 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and was not refused")
	}
	samples = append(samples, 200)
	if v, err := Percentile(samples, 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if v, err := Percentile(samples[:5], 0.5); err != nil || v != 3 {
		t.Errorf("median of 1..5 = %v, %v; want 3", v, err)
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples was not refused")
	}
}

func TestQuartilesMatchTheExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	var s []float64
	for i := 10; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if q := Quartiles(s); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("Quartiles(1..10) = %v", q)
	}
}

func TestSelfTime(t *testing.T) {
	parent := &Span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []*Span
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []*Span{{Start: 110, End: 130}, {Start: 150, End: 160}}, 70},
		{"nested grandchildren do not count twice", []*Span{{Start: 110, End: 150}}, 60},
		{"overlapping", []*Span{{Start: 110, End: 150}, {Start: 140, End: 170}}, 40},
		{"parallel: cover, not sum", []*Span{{Start: 100, End: 180}, {Start: 100, End: 190}, {Start: 100, End: 120}}, 10},
		{"clipped to the parent", []*Span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
	} {
		if got := SelfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	if got := trimmedMean([]float64{1, 1.2, 40, 0.8, 1, 1, 0.1}, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("trimmed mean with one interrupted and one lucky sample = %v, want 1", got)
	}
	if got := trimmedMean([]float64{2, 4}, 2); got != 3 {
		t.Errorf("trimmed mean of fewer values than are trimmed = %v, want their mean 3", got)
	}
	if got := trimmedMean(nil, 2); got != 1 {
		t.Errorf("trimmed mean of no samples = %v, want the neutral factor 1", got)
	}
}

// A host on which everything takes k times as long, the speedometer's kernel
// included, must read the same at reference speed as a quiet one.
func TestReferenceSpeedCancelsAUniformSlowdown(t *testing.T) {
	window := func(k float64) (p50, tput float64) {
		sp := &speedometer{}
		var samples []sample
		var now time.Duration
		scaled := func(d time.Duration) time.Duration { return time.Duration(float64(d) * k) }
		for i := 0; i < 400; i++ {
			sp.at, sp.f = append(sp.at, now), append(sp.f, k)
			now += scaled(calRef) // left out of done, as window does
			lat := time.Duration(1+i%7) * time.Millisecond
			samples = append(samples, sample{at: now, out: outcome{lat: scaled(lat)},
				done: now + scaled(lat) - scaled(calRef)*time.Duration(i+1)})
			now += scaled(lat + 100*time.Microsecond)
		}
		lats, wallS := atReferenceSpeed(samples, sp)
		return Median(lats), float64(len(lats)) / wallS
	}
	p50, tput := window(1)
	if p50 != 4 {
		t.Errorf("p50 on the quiet host = %v ms, want 4", p50)
	}
	slowP50, slowTput := window(1.7)
	if math.Abs(slowP50-p50) > 1e-6*p50 || math.Abs(slowTput-tput) > 1e-6*tput {
		t.Errorf("a host 1.7 times slower reads p50 %v ms and %v ops/s, the quiet one %v and %v", slowP50, slowTput, p50, tput)
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesTheDriver(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(f.Workloads); n < 2 || n > 8 || n != len(Workloads) {
		t.Errorf("%d workloads, the driver has %d", n, len(Workloads))
	}
	for i, w := range f.Workloads {
		if !name.MatchString(w.Name) || i >= len(Workloads) || w.Name != Workloads[i] {
			t.Errorf("workload %d is %q", i, w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 || n != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics, the driver has %d", n, len(EndToEnd))
	}
	for i, m := range f.EndToEnd {
		d := EndToEnd[i]
		if !name.MatchString(m.Name) || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v, the driver has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if n := len(f.PerLayer); n < 1 || n > 128 || n != len(PerLayer) {
		t.Fatalf("%d per-layer metrics, the driver has %d", n, len(PerLayer))
	}
	seen := map[string]bool{}
	for i, m := range f.PerLayer {
		d := PerLayer[i]
		if !name.MatchString(m.Name) || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v, the driver has %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("%s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, e := range ExactCounts {
		if !seen[e] {
			t.Errorf("exact count %s is not a per-layer metric", e)
		}
	}
}

// smoke runs one workload at a scale small enough for go test.
func smoke(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.scale, cfg.Seconds = 0.002, 0.05
	cfg.Seed, cfg.Dir = 5, t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	return res
}

func TestEveryWorkloadEndToEndAndTraced(t *testing.T) {
	measured := map[string]bool{}
	for _, w := range Workloads {
		plain := smoke(t, Config{Workload: w})
		if plain.Failed != 0 || plain.Attempted < 400 {
			t.Errorf("%s: %d failed of %d attempted: %s", w, plain.Failed, plain.Attempted, plain.FirstFailure)
		}
		for _, d := range EndToEnd {
			if m, ok := plain.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w, d.Name, m)
			}
		}
		if len(plain.Metrics) != len(EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, want %d", w, len(plain.Metrics), len(EndToEnd))
		}

		traced := smoke(t, Config{Workload: w, Trace: true})
		if traced.Failed != 0 {
			t.Errorf("%s traced: %d failed: %s", w, traced.Failed, traced.FirstFailure)
		}
		if len(traced.Metrics) != len(PerLayer) {
			t.Errorf("%s traced: %d per-layer metrics emitted, want %d", w, len(traced.Metrics), len(PerLayer))
		}
		for _, d := range PerLayer {
			if _, ok := traced.Metrics[d.Name]; !ok {
				t.Errorf("%s traced: %s is missing", w, d.Name)
			}
		}
		line, err := traced.ResultLine()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseResultLine(line)
		if err != nil || len(back.Metrics) != len(PerLayer) || back.Attempted != traced.Attempted {
			t.Errorf("%s: the result line does not read back: %v", w, err)
		}
		// Every layer metric is measured in the traced run of some workload.
		for name, m := range traced.Metrics {
			if !m.NA {
				measured[name] = true
			}
		}
		if share := traced.Metrics["obs.attributed_share"].Value; share <= 0 || share > 1 {
			t.Errorf("%s: attributed share %v", w, share)
		}
	}
	for _, d := range PerLayer {
		if !measured[d.Name] {
			t.Errorf("%s is never measured", d.Name)
		}
	}
}

func TestGuardRatios(t *testing.T) {
	hot := smoke(t, Config{Workload: ServeHot, Trace: true})
	if r := hot.Metrics["service.result_cache_hit_ratio"].Value; r < 0.99 {
		t.Errorf("serve_hot result-cache hit ratio %v, want >= 0.99", r)
	}
	cold := smoke(t, Config{Workload: ServeCold, Trace: true})
	if r := cold.Metrics["service.result_cache_hit_ratio"].Value; r > 0.01 {
		t.Errorf("serve_cold result-cache hit ratio %v, want <= 0.01", r)
	}
	if r := cold.Metrics["service.build_cache_hit_ratio"].Value; r < 0.9 {
		t.Errorf("serve_cold build-cache hit ratio %v, want about 1", r)
	}
	if s := cold.Metrics["memory.shed_total"].Value; s != 0 {
		t.Errorf("serve_cold shed %v requests", s)
	}
}

func TestADisagreeingOracleFailsTheRun(t *testing.T) {
	res := smoke(t, Config{Workload: PaperJoin, corruptOracle: true})
	if res.Failed != res.Attempted || res.FirstFailure == "" {
		t.Errorf("%d failed of %d attempted with an oracle that disagrees on every op", res.Failed, res.Attempted)
	}
	if line, _ := res.ResultLine(); !strings.Contains(line, `"correct":false`) {
		t.Errorf("result line %s", line)
	}
}

func fileOf(p50 ...float64) *File {
	f := &File{}
	for _, v := range p50 {
		f.Runs = append(f.Runs, &Result{Workload: PaperSelect, Attempted: 100, Metrics: map[string]Metric{
			"latency_p50_ms": {Value: v, Unit: "ms"}}})
		f.Runs = append(f.Runs, &Result{Workload: PaperSelect, Trace: true, Metrics: map[string]Metric{
			"core.tuples_constructed_per_op": {Value: 42, Unit: "count"}}})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	parent := fileOf(10, 10.1, 9.9, 10.2, 9.8)
	var out bytes.Buffer
	// fail_share is compared too, and is 0 on both sides.
	if s := Compare(&out, parent, fileOf(10.3, 10, 10.1, 9.9, 10.2)); s.OK != 2 || s.Regressed+s.Unresolved+s.ExactDiffer+len(s.SettingsDiffer) != 0 {
		t.Errorf("equal sides: %+v\n%s", s, out.String())
	}
	if s := Compare(&out, parent, fileOf(14, 14.1, 13.9, 14.2, 13.8)); s.Regressed != 1 {
		t.Errorf("a 40%% slower change: %+v", s)
	}
	if s := Compare(&out, parent, fileOf(8, 14, 10, 6, 12)); s.Unresolved != 1 || s.Regressed != 0 {
		t.Errorf("a change with a wide spread: %+v", s)
	}
	drift := fileOf(10, 10.1, 9.9, 10.2, 9.8)
	drift.Runs[1].Metrics["core.tuples_constructed_per_op"] = Metric{Value: 43, Unit: "count"}
	if s := Compare(&out, parent, drift); s.ExactDiffer != 1 {
		t.Errorf("an exact count that moved: %+v", s)
	}
	elsewhere := fileOf(10, 10.1, 9.9, 10.2, 9.8)
	elsewhere.Host.GODEBUG, elsewhere.Seconds = "madvdontneed=1", 5
	if s := Compare(&out, parent, elsewhere); len(s.SettingsDiffer) != 2 {
		t.Errorf("files measured under different settings: %+v", s)
	}
	failing := fileOf(10, 10.1, 9.9, 10.2, 9.8)
	for _, r := range failing.Runs {
		r.Failed = 1
	}
	if s := Compare(&out, parent, failing); s.Regressed != 1 {
		t.Errorf("a change that fails ops: %+v", s)
	}
}
