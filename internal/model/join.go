package model

import "matstore/internal/operators"

// This file holds the Section 4.3 operator terms of the join — the blocking
// build and the streaming probe, per inner-table materialization strategy.
// Like the Figure 1–6 formulas of cost.go they are composed in one place, the
// plan walk of price.go.

// JoinBuild predicts the blocking hash-build phase over the inner table:
// a full scan of the key column (DS1-style iteration) plus one hash insert
// per tuple, and the per-strategy payload materialization —
//
//	right-materialized: each payload column is scanned, decompressed and
//	  constructed into position-addressable arrays (TICCOL + TICTUP per
//	  tuple, the Section 2.1.2 early-construction cost);
//	right-multicolumn: each payload column's blocks are read and retained
//	  compressed (block iteration only);
//	right-singlecolumn: nothing beyond the key scan.
func (m Constants) JoinBuild(key ColumnStats, payload []ColumnStats, rs operators.RightStrategy) (cpu, io float64) {
	cpu = key.Blocks*m.BIC +
		key.Tuples*(m.TICCOL+m.FC)/key.rl() +
		key.Tuples*m.TICTUP // hash insert per key
	io = m.scanIO(key)
	switch rs {
	case operators.RightMaterialized:
		for _, c := range payload {
			cpu += c.Blocks*m.BIC + c.Tuples*m.TICCOL/c.rl() + c.Tuples*m.TICTUP
			io += m.scanIO(c)
		}
	case operators.RightMultiColumn:
		for _, c := range payload {
			cpu += c.Blocks * m.BIC
			io += m.scanIO(c)
		}
	}
	return cpu, io
}

// JoinStrategies lists the inner-table strategies in presentation order.
var JoinStrategies = []operators.RightStrategy{
	operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
}

// JoinProbe predicts the streaming probe phase, excluding the outer-table
// position scan (the DS1 child carries its own cost): probes hash lookups
// (FC each), output-tuple construction over numLeftCols+len(payload)
// attributes (TICTUP per glued value), and the per-strategy right payload
// access —
//
//	right-materialized: a direct array index per output value (FC);
//	right-multicolumn: a compressed mini-column extraction per output value
//	  (TICCOL + FC);
//	right-singlecolumn: the deferred positional join — a DS3 over each
//	  payload column at the out positions with run length 1 (probe order is
//	  left order, so jumps are out-of-order and no merge join applies).
//
// rightTuples scales the deferred fetch's I/O by the touched fraction of
// each payload column.
func (m Constants) JoinProbe(probes, out float64, numLeftCols int, payload []ColumnStats, rs operators.RightStrategy, rightTuples float64) (cpu, io float64) {
	cpu = probes * m.FC // hash lookup (partition route + bucket probe)
	cpu += out * float64(numLeftCols+len(payload)) * m.TICTUP
	switch rs {
	case operators.RightMaterialized:
		cpu += out * float64(len(payload)) * m.FC
	case operators.RightMultiColumn:
		cpu += out * float64(len(payload)) * (m.TICCOL + m.FC)
	case operators.RightSingleColumn:
		sf := 1.0
		if rightTuples > 0 && out < rightTuples {
			sf = out / rightTuples
		}
		for _, c := range payload {
			dcpu, dio := m.DS3(c, out, 1, sf, false)
			cpu += dcpu
			io += dio
		}
	}
	return cpu, io
}
