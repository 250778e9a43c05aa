// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table 2, Figures 10–13) over
// TPC-H-shaped data produced by internal/tpch. Each experiment returns a
// Figure — an x-axis (selectivity)
// with one runtime series per strategy — which the CLI and the benchmark
// suite render as text tables or CSV.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"matstore"
	"matstore/internal/core"
	"matstore/internal/encoding"
	"matstore/internal/model"
	"matstore/internal/operators"
	"matstore/internal/pred"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// Series is one named curve of a figure.
type Series struct {
	Name string
	Y    []float64 // runtime in milliseconds, parallel to Figure.X
}

// Figure is one regenerated table/figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Render writes the figure as an aligned text table.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%18s", s.Name)
	}
	fmt.Fprintln(w)
	for i, x := range f.X {
		fmt.Fprintf(w, "%-12.3f", x)
		for _, s := range f.Series {
			fmt.Fprintf(w, "%18.3f", s.Y[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(%s)\n", f.YLabel)
}

// CSV writes the figure as comma-separated values.
func (f Figure) CSV(w io.Writer) {
	fmt.Fprintf(w, "%s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, ",%s", s.Name)
	}
	fmt.Fprintln(w)
	for i, x := range f.X {
		fmt.Fprintf(w, "%g", x)
		for _, s := range f.Series {
			fmt.Fprintf(w, ",%g", s.Y[i])
		}
		fmt.Fprintln(w)
	}
}

// series returns a pointer to the named series, creating it if necessary.
func (f *Figure) series(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	f.Series = append(f.Series, Series{Name: name})
	return &f.Series[len(f.Series)-1]
}

// DefaultSelectivities is the x-axis used for every sweep (the paper sweeps
// 0..1).
var DefaultSelectivities = []float64{0.001, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Env is an opened experiment environment.
type Env struct {
	Dir       string
	DB        *storage.DB
	Scale     float64
	ChunkSize int64
	// Runs is the number of timed repetitions per point; the minimum is
	// reported (the paper reports steady-state runs).
	Runs      int
	Constants model.Constants
	// Parallelism is the morsel-parallel worker count applied to every
	// timed query (0 = one per CPU). The default 1 reproduces the paper's
	// single-threaded experiments.
	Parallelism int

	lineitem *storage.Projection
	orders   *storage.Projection
	customer *storage.Projection
}

// Setup opens (generating if absent) a dataset of the given scale under
// dir. The marker file records the generation parameters so mismatched
// datasets are regenerated.
func Setup(dir string, scale float64, seed uint64) (*Env, error) {
	marker := filepath.Join(dir, fmt.Sprintf("generated-v%d.%d-scale%g-seed%d", storage.FormatVersion, tpch.GenVersion, scale, seed))
	if _, err := os.Stat(marker); err != nil {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := tpch.Generate(dir, tpch.Config{Scale: scale, Seed: seed}); err != nil {
			return nil, err
		}
		if err := os.WriteFile(marker, []byte("ok\n"), 0o644); err != nil {
			return nil, err
		}
	}
	db, err := storage.OpenDB(dir, 0)
	if err != nil {
		return nil, err
	}
	env := &Env{
		Dir:         dir,
		DB:          db,
		Scale:       scale,
		ChunkSize:   0, // executor default
		Runs:        3,
		Constants:   model.Paper,
		Parallelism: 1,
	}
	if env.lineitem, err = db.Projection(tpch.LineitemProj); err != nil {
		db.Close()
		return nil, err
	}
	if env.orders, err = db.Projection(tpch.OrdersProj); err != nil {
		db.Close()
		return nil, err
	}
	if env.customer, err = db.Projection(tpch.CustomerProj); err != nil {
		db.Close()
		return nil, err
	}
	return env, nil
}

// Close releases the environment.
func (e *Env) Close() error { return e.DB.Close() }

func (e *Env) executor() *core.Executor {
	return core.NewExecutor(e.DB.Pool(), core.Options{ChunkSize: e.ChunkSize})
}

// timeBest runs one timed query e.Runs+1 times (the first run warms the
// buffer pool, as the paper's properly-pipelined assumption requires) and
// returns the minimum wall time in milliseconds — the timing policy shared
// by every figure.
func (e *Env) timeBest(run func() (time.Duration, error)) (float64, error) {
	best := time.Duration(0)
	for r := 0; r <= e.Runs; r++ {
		wall, err := run()
		if err != nil {
			return 0, err
		}
		if r == 0 {
			continue // warm-up
		}
		if best == 0 || wall < best {
			best = wall
		}
	}
	return float64(best) / float64(time.Millisecond), nil
}

// timeSelect applies the timeBest policy to a selection query over lineitem.
func (e *Env) timeSelect(q core.SelectQuery, s core.Strategy) (float64, error) {
	q.Parallelism = e.Parallelism
	exec := e.executor()
	return e.timeBest(func() (time.Duration, error) {
		_, stats, err := exec.Select(e.lineitem, q, s)
		if err != nil {
			return 0, err
		}
		return stats.Wall, nil
	})
}

// timeJoin applies the timeBest policy to a join query.
func (e *Env) timeJoin(q core.JoinQuery, rs operators.RightStrategy) (float64, error) {
	q.Parallelism = e.Parallelism
	exec := e.executor()
	return e.timeBest(func() (time.Duration, error) {
		_, stats, err := exec.Join(e.orders, e.customer, q, rs)
		if err != nil {
			return 0, err
		}
		return stats.Wall, nil
	})
}

// SelectionQuery builds the paper's Section 4 selection query over the
// chosen LINENUM encoding at shipdate-selectivity sel.
func SelectionQuery(enc encoding.Kind, sel float64, agg bool) core.SelectQuery {
	linenum := tpch.LinenumColumn(enc)
	q := core.SelectQuery{
		Filters: []core.Filter{
			{Col: tpch.ColShipdate, Pred: pred.LessThan(tpch.ShipdateForSelectivity(sel))},
			{Col: linenum, Pred: pred.LessThan(tpch.LinenumMax)}, // the fixed 96% predicate
		},
	}
	if agg {
		q.GroupBy = tpch.ColShipdate
		q.AggCol = linenum
	} else {
		q.Output = []string{tpch.ColShipdate, linenum}
	}
	return q
}

// fig11Strategies returns the strategies shown for an encoding: the paper
// omits LM-pipelined for bit-vector data (position filtering on bit-vectors
// is not supported by the C-Store executor).
func fig11Strategies(enc encoding.Kind) []core.Strategy {
	if enc == encoding.BitVector {
		return []core.Strategy{core.EMPipelined, core.EMParallel, core.LMParallel}
	}
	return core.Strategies
}

// Fig11 regenerates one panel of Figure 11 (selection query run-times):
// enc selects the LINENUM encoding — (a) plain, (b) RLE, (c) bit-vector.
func (e *Env) Fig11(enc encoding.Kind, sels []float64) (Figure, error) {
	fig := Figure{
		ID:     "Figure 11(" + panel(enc) + ")",
		Title:  "selection query, LINENUM " + enc.String(),
		XLabel: "selectivity",
		YLabel: "runtime ms, lower is better",
		X:      sels,
	}
	for _, s := range fig11Strategies(enc) {
		ser := fig.series(s.String())
		for _, sel := range sels {
			ms, err := e.timeSelect(SelectionQuery(enc, sel, false), s)
			if err != nil {
				return fig, err
			}
			ser.Y = append(ser.Y, ms)
		}
	}
	return fig, nil
}

// Fig12 regenerates one panel of Figure 12 (aggregation query run-times).
func (e *Env) Fig12(enc encoding.Kind, sels []float64) (Figure, error) {
	fig := Figure{
		ID:     "Figure 12(" + panel(enc) + ")",
		Title:  "aggregation query, LINENUM " + enc.String(),
		XLabel: "selectivity",
		YLabel: "runtime ms, lower is better",
		X:      sels,
	}
	for _, s := range fig11Strategies(enc) {
		ser := fig.series(s.String())
		for _, sel := range sels {
			ms, err := e.timeSelect(SelectionQuery(enc, sel, true), s)
			if err != nil {
				return fig, err
			}
			ser.Y = append(ser.Y, ms)
		}
	}
	return fig, nil
}

func panel(enc encoding.Kind) string {
	switch enc {
	case encoding.Plain:
		return "a"
	case encoding.RLE:
		return "b"
	default:
		return "c"
	}
}

// Fig10 regenerates Figure 10: measured versus model-predicted run time for
// the RLE selection query, LM strategies in panel (a) and EM strategies in
// panel (b).
func (e *Env) Fig10(sels []float64) (Figure, Figure, error) {
	lm := Figure{ID: "Figure 10(a)", Title: "LM real vs model (RLE selection)",
		XLabel: "selectivity", YLabel: "runtime ms", X: sels}
	em := Figure{ID: "Figure 10(b)", Title: "EM real vs model (RLE selection)",
		XLabel: "selectivity", YLabel: "runtime ms", X: sels}
	// Pre-create every series: series() pointers are invalidated when a
	// later call grows the slice.
	for _, s := range core.Strategies {
		fig := &em
		if s == core.LMPipelined || s == core.LMParallel {
			fig = &lm
		}
		fig.series(s.String() + " Real")
		fig.series(s.String() + " Model")
	}
	for _, sel := range sels {
		q := SelectionQuery(encoding.RLE, sel, false)
		for _, s := range core.Strategies {
			ms, err := e.timeSelect(q, s)
			if err != nil {
				return lm, em, err
			}
			predMS, err := e.ModelMS(q, s)
			if err != nil {
				return lm, em, err
			}
			fig := &em
			if s == core.LMPipelined || s == core.LMParallel {
				fig = &lm
			}
			real := fig.series(s.String() + " Real")
			real.Y = append(real.Y, ms)
			mod := fig.series(s.String() + " Model")
			mod.Y = append(mod.Y, predMS)
		}
	}
	return lm, em, nil
}

// ModelMS is the model's prediction (ms) for q under s: the price of the plan
// the strategy builds over lineitem, in the F=1 hot-pool configuration
// matching the measured steady state.
func (e *Env) ModelMS(q core.SelectQuery, s core.Strategy) (float64, error) {
	pl, err := e.executor().BuildPlan(e.lineitem, q, s)
	if err != nil {
		return 0, err
	}
	return e.Constants.Price(pl, true).Total() / 1e3, nil
}

// Fig13 regenerates Figure 13: the orders ⋈ customer join under the three
// inner-table materialization strategies, sweeping the orders.custkey
// predicate selectivity.
func (e *Env) Fig13(sels []float64) (Figure, error) {
	fig := Figure{
		ID:     "Figure 13",
		Title:  "join inner-table materialization (orders ⋈ customer)",
		XLabel: "selectivity",
		YLabel: "runtime ms, lower is better",
		X:      sels,
	}
	nCust := e.customer.TupleCount()
	for _, rs := range []operators.RightStrategy{
		operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
	} {
		ser := fig.series(seriesName(rs))
		for _, sel := range sels {
			q := core.JoinQuery{
				LeftKey:     tpch.ColCustkey,
				LeftPred:    pred.LessThan(tpch.CustkeyForSelectivity(sel, nCust)),
				LeftOutput:  []string{tpch.ColOrderShipdate},
				RightKey:    tpch.ColCustkey,
				RightOutput: []string{tpch.ColNationcode},
			}
			ms, err := e.timeJoin(q, rs)
			if err != nil {
				return fig, err
			}
			ser.Y = append(ser.Y, ms)
		}
	}
	return fig, nil
}

func seriesName(rs operators.RightStrategy) string {
	switch rs {
	case operators.RightMaterialized:
		return "Right Table Materialized"
	case operators.RightMultiColumn:
		return "Right Table Multi-Column"
	default:
		return "Right Table Single Column"
	}
}

// Table2 fits the analytical-model constants to this host: CalibrateDB's
// refit over the environment's dataset, from Table 2's values.
func (e *Env) Table2() (model.Constants, error) {
	db, err := matstore.Open(e.Dir)
	if err != nil {
		return model.Constants{}, err
	}
	defer db.Close()
	if _, err := CalibrateDB(db); err != nil {
		return model.Constants{}, err
	}
	return db.Constants(), nil
}

// RenderTable2 prints the Table 2 comparison: the host's constants beside
// the paper's.
func RenderTable2(w io.Writer, host model.Constants) {
	paper := model.Paper
	fmt.Fprintln(w, "Table 2 — analytical model constants (µs)")
	fmt.Fprintf(w, "%-10s%14s%14s\n", "constant", "this host", "paper (P4)")
	rows := []struct {
		name      string
		host, pap float64
	}{
		{"BIC", host.BIC, paper.BIC},
		{"TICTUP", host.TICTUP, paper.TICTUP},
		{"TICCOL", host.TICCOL, paper.TICCOL},
		{"FC", host.FC, paper.FC},
		{"SEEK", host.SEEK, paper.SEEK},
		{"READ", host.READ, paper.READ},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s%14.6g%14.6g\n", r.name, r.host, r.pap)
	}
}

// CrossoverCheck extracts the qualitative claims of a figure: which series
// wins at the low end, which at the high end — the "shape" EXPERIMENTS.md
// records.
func CrossoverCheck(f Figure) (lowWinner, highWinner string) {
	if len(f.X) == 0 || len(f.Series) == 0 {
		return "", ""
	}
	lo, hi := 0, len(f.X)-1
	lowWinner, highWinner = f.Series[0].Name, f.Series[0].Name
	for _, s := range f.Series[1:] {
		if s.Y[lo] < bySeries(f, lowWinner).Y[lo] {
			lowWinner = s.Name
		}
		if s.Y[hi] < bySeries(f, highWinner).Y[hi] {
			highWinner = s.Name
		}
	}
	return lowWinner, highWinner
}

func bySeries(f Figure, name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return &Series{}
}

// JoinStatsAt returns the join work counters at a fixed selectivity, used
// to verify Figure 13's mechanism (deferred fetches for the single-column
// strategy).
func (e *Env) JoinStatsAt(sel float64, rs operators.RightStrategy) (*core.JoinStats, error) {
	exec := e.executor()
	q := core.JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    pred.LessThan(tpch.CustkeyForSelectivity(sel, e.customer.TupleCount())),
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
		Parallelism: e.Parallelism,
	}
	_, stats, err := exec.Join(e.orders, e.customer, q, rs)
	return stats, err
}
