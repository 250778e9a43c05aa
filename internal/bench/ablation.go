package bench

import (
	"matstore/internal/core"
	"matstore/internal/encoding"
	"matstore/internal/operators"
	"matstore/internal/positions"
	"matstore/internal/pred"
	"matstore/internal/tpch"
)

// This file implements the ablation experiments DESIGN.md calls out: each
// isolates one design choice the paper argues for and measures the query
// with the choice on and off.

// AblationMultiColumn measures the LM re-access penalty (Section 2.2 /
// 3.6): LM-parallel with mini-column reuse versus forced column re-access.
func (e *Env) AblationMultiColumn(sels []float64) (Figure, error) {
	fig := Figure{
		ID:     "Ablation A1",
		Title:  "multi-column optimization on/off (LM-parallel, RLE selection)",
		XLabel: "selectivity",
		YLabel: "runtime ms",
		X:      sels,
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"multi-column", false}, {"re-access", true}} {
		exec := core.NewExecutor(e.DB.Pool(), core.Options{ChunkSize: e.ChunkSize, DisableMultiColumn: mode.disable})
		ser := fig.series(mode.name)
		for _, sel := range sels {
			ms, err := e.timeSelect(exec, e.lineitem, SelectionQuery(encoding.RLE, sel, false), core.LMParallel)
			if err != nil {
				return fig, err
			}
			ser.Y = append(ser.Y, ms)
		}
	}
	return fig, nil
}

// AblationPositionRep compares adaptive position representations against
// forced bitmaps (Section 3.3's representation cases).
func (e *Env) AblationPositionRep(sels []float64) (Figure, error) {
	fig := Figure{
		ID:     "Ablation A2",
		Title:  "position representation: adaptive vs forced bitmap (LM-parallel, RLE)",
		XLabel: "selectivity",
		YLabel: "runtime ms",
		X:      sels,
	}
	for _, mode := range []struct {
		name  string
		force bool
	}{{"adaptive (ranges)", false}, {"forced bitmap", true}} {
		exec := core.NewExecutor(e.DB.Pool(), core.Options{ChunkSize: e.ChunkSize, ForceBitmapPositions: mode.force})
		ser := fig.series(mode.name)
		for _, sel := range sels {
			ms, err := e.timeSelect(exec, e.lineitem, SelectionQuery(encoding.RLE, sel, false), core.LMParallel)
			if err != nil {
				return fig, err
			}
			ser.Y = append(ser.Y, ms)
		}
	}
	return fig, nil
}

// AblationChunkSize sweeps the horizontal-partition width at a fixed
// mid-range selectivity.
func (e *Env) AblationChunkSize(chunkSizes []int64) (Figure, error) {
	fig := Figure{
		ID:     "Ablation A3",
		Title:  "chunk (horizontal partition) size sweep, selectivity 0.5",
		XLabel: "chunk size",
		YLabel: "runtime ms",
	}
	for _, cs := range chunkSizes {
		fig.X = append(fig.X, float64(cs))
	}
	for _, s := range core.Strategies {
		ser := fig.series(s.String())
		for _, cs := range chunkSizes {
			exec := core.NewExecutor(e.DB.Pool(), core.Options{ChunkSize: cs})
			ms, err := e.timeSelect(exec, e.lineitem, SelectionQuery(encoding.RLE, 0.5, false), s)
			if err != nil {
				return fig, err
			}
			ser.Y = append(ser.Y, ms)
		}
	}
	return fig, nil
}

// AblationAggCompressed compares LM aggregation operating directly on
// compressed data against an EM plan that decompresses and hash-aggregates
// constructed tuples (the Section 4.2 effect in isolation).
func (e *Env) AblationAggCompressed(sels []float64) (Figure, error) {
	fig := Figure{
		ID:     "Ablation A4",
		Title:  "aggregation on compressed data (LM) vs on constructed tuples (EM), RLE",
		XLabel: "selectivity",
		YLabel: "runtime ms",
		X:      sels,
	}
	exec := e.executor()
	for _, s := range []core.Strategy{core.LMParallel, core.EMParallel} {
		name := "decompress+hash (EM-parallel)"
		if s == core.LMParallel {
			name = "direct-on-compressed (LM-parallel)"
		}
		ser := fig.series(name)
		for _, sel := range sels {
			ms, err := e.timeSelect(exec, e.lineitem, SelectionQuery(encoding.RLE, sel, true), s)
			if err != nil {
				return fig, err
			}
			ser.Y = append(ser.Y, ms)
		}
	}
	return fig, nil
}

// AblationZoneIndex compares scan-derived against index-derived positions
// (Section 2.1.1: "the original column values never have to be accessed")
// for the LM-parallel selection over RLE data.
func (e *Env) AblationZoneIndex(sels []float64) (Figure, error) {
	fig := Figure{
		ID:     "Ablation A5",
		Title:  "positions from scan vs from block index zones (LM-parallel, RLE)",
		XLabel: "selectivity",
		YLabel: "runtime ms",
		X:      sels,
	}
	for _, mode := range []struct {
		name string
		zone bool
	}{{"scan-derived", false}, {"index-derived", true}} {
		exec := core.NewExecutor(e.DB.Pool(), core.Options{ChunkSize: e.ChunkSize, UseZoneIndex: mode.zone})
		ser := fig.series(mode.name)
		for _, sel := range sels {
			ms, err := e.timeSelect(exec, e.lineitem, SelectionQuery(encoding.RLE, sel, false), core.LMParallel)
			if err != nil {
				return fig, err
			}
			ser.Y = append(ser.Y, ms)
		}
	}
	return fig, nil
}

// PositionIntersectMicro measures the raw position-AND primitives of
// Section 3.3 (ranges×ranges, bitmap×bitmap, ranges×bitmap) over n
// positions, reporting millions of positions intersected per millisecond.
// It is exercised by the benchmark suite rather than the figure sweeps.
func PositionIntersectMicro(n int64) map[string]positions.Set {
	half := positions.NewRanges(positions.Range{Start: 0, End: n / 2})
	quarter := positions.NewRanges(positions.Range{Start: n / 4, End: 3 * n / 4})
	bmEven := positions.NewBitmap(0, n)
	for i := int64(0); i < n; i += 2 {
		bmEven.Set(i)
	}
	bmThirds := positions.NewBitmap(0, n)
	for i := int64(0); i < n; i += 3 {
		bmThirds.Set(i)
	}
	return map[string]positions.Set{
		"ranges-x-ranges": positions.And(half, quarter),
		"bitmap-x-bitmap": positions.And(bmEven, bmThirds),
		"ranges-x-bitmap": positions.And(half, bmEven),
	}
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
