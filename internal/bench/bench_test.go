package bench

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"matstore/internal/encoding"
	"matstore/internal/operators"
)

var (
	envOnce sync.Once
	envDir  string
	envErr  error
)

// testEnv builds a tiny experiment environment once per test binary.
func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envDir, envErr = os.MkdirTemp("", "matstore-bench-test")
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	e, err := Setup(envDir, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	e.Runs = 1
	t.Cleanup(func() { e.Close() })
	return e
}

func TestMain(m *testing.M) {
	code := m.Run()
	if envDir != "" {
		os.RemoveAll(envDir)
	}
	os.Exit(code)
}

func TestSetupIsIdempotent(t *testing.T) {
	e := testEnv(t)
	if e.lineitem.TupleCount() == 0 {
		t.Fatal("empty lineitem")
	}
	// Second Setup must reuse the generated data, not regenerate.
	e2, err := Setup(envDir, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.lineitem.TupleCount() != e.lineitem.TupleCount() {
		t.Error("re-setup changed the dataset")
	}
}

func smallSels() []float64 { return []float64{0.1, 0.9} }

func TestFig11AllPanels(t *testing.T) {
	e := testEnv(t)
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		fig, err := e.Fig11(enc, smallSels())
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		wantSeries := 4
		if enc == encoding.BitVector {
			wantSeries = 3 // the paper omits LM-pipelined for bit-vector
		}
		if len(fig.Series) != wantSeries {
			t.Errorf("%v: %d series, want %d (%v)", enc, len(fig.Series), wantSeries, SortedSeriesNames(fig))
		}
		for _, s := range fig.Series {
			if len(s.Y) != len(fig.X) {
				t.Errorf("%v/%s: %d points, want %d", enc, s.Name, len(s.Y), len(fig.X))
			}
			for _, y := range s.Y {
				if y < 0 {
					t.Errorf("%v/%s: negative runtime", enc, s.Name)
				}
			}
		}
	}
}

func TestFig12Runs(t *testing.T) {
	e := testEnv(t)
	fig, err := e.Fig12(encoding.RLE, smallSels())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Errorf("series = %v", SortedSeriesNames(fig))
	}
}

func TestFig10ModelAndReal(t *testing.T) {
	e := testEnv(t)
	lm, em, err := e.Fig10(smallSels())
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []Figure{lm, em} {
		if len(fig.Series) != 4 { // 2 strategies × {Real, Model}
			t.Errorf("%s: series = %v", fig.ID, SortedSeriesNames(fig))
		}
		for _, s := range fig.Series {
			if len(s.Y) != len(fig.X) {
				t.Errorf("%s/%s: %d points, want %d", fig.ID, s.Name, len(s.Y), len(fig.X))
			}
			if strings.HasSuffix(s.Name, "Model") {
				for _, y := range s.Y {
					if y <= 0 {
						t.Errorf("%s/%s: non-positive model prediction %v", fig.ID, s.Name, y)
					}
				}
			}
		}
	}
}

func TestFig13Runs(t *testing.T) {
	e := testEnv(t)
	fig, err := e.Fig13(smallSels())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Errorf("series = %v", SortedSeriesNames(fig))
	}
}

func TestJoinStatsMechanism(t *testing.T) {
	e := testEnv(t)
	single, err := e.JoinStatsAt(0.5, operators.RightSingleColumn)
	if err != nil {
		t.Fatal(err)
	}
	if single.Join.DeferredFetches == 0 {
		t.Error("single-column join must defer fetches (Figure 13 mechanism)")
	}
	mat, err := e.JoinStatsAt(0.5, operators.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Join.DeferredFetches != 0 {
		t.Error("materialized join must not defer fetches")
	}
	if mat.Join.RightBuildTuples == 0 {
		t.Error("materialized join must construct right tuples at build")
	}
}

func TestRenderAndCSV(t *testing.T) {
	fig := Figure{
		ID: "F", Title: "demo", XLabel: "selectivity", YLabel: "ms",
		X:      []float64{0.1, 0.2},
		Series: []Series{{Name: "a", Y: []float64{1, 2}}, {Name: "b", Y: []float64{3, 4}}},
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "selectivity", "a", "b", "0.100"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	fig.CSV(&buf)
	if got := buf.String(); !strings.HasPrefix(got, "selectivity,a,b\n0.1,1,3\n") {
		t.Errorf("CSV = %q", got)
	}
}

func TestCrossoverCheck(t *testing.T) {
	fig := Figure{
		X: []float64{0, 1},
		Series: []Series{
			{Name: "lo-wins", Y: []float64{1, 10}},
			{Name: "hi-wins", Y: []float64{5, 2}},
		},
	}
	lo, hi := CrossoverCheck(fig)
	if lo != "lo-wins" || hi != "hi-wins" {
		t.Errorf("CrossoverCheck = %q, %q", lo, hi)
	}
	if lo, hi := CrossoverCheck(Figure{}); lo != "" || hi != "" {
		t.Error("empty figure crossover should be empty")
	}
}

func TestTable2(t *testing.T) {
	host, paper := Table2()
	if host.FC <= 0 || paper.FC != 0.009 {
		t.Errorf("Table2 host FC=%v paper FC=%v", host.FC, paper.FC)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, host, paper)
	if !strings.Contains(buf.String(), "TICTUP") {
		t.Error("RenderTable2 missing rows")
	}
}

func TestPositionIntersectMicro(t *testing.T) {
	sets := PositionIntersectMicro(1 << 12)
	if len(sets) != 3 {
		t.Fatalf("got %d micro cases", len(sets))
	}
	// ranges(0..n/2) ∧ even positions: n/4 survivors.
	if got := sets["ranges-x-bitmap"].Count(); got != 1<<10 {
		t.Errorf("ranges-x-bitmap count = %d, want %d", got, 1<<10)
	}
}
