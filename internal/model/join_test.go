package model

import (
	"testing"

	"matstore/internal/operators"
)

// TestJoinBuildCostOrdering pins the Section 4.3 build-side ordering: early
// materialization of the payload costs the most at build, multi-column pays
// only block reads, single-column only the key scan.
func TestJoinBuildCostOrdering(t *testing.T) {
	m := Paper
	key := ColumnStats{Blocks: 100, Tuples: 800_000, RunLen: 1}
	payload := []ColumnStats{{Blocks: 100, Tuples: 800_000, RunLen: 1}}
	total := func(rs operators.RightStrategy) float64 {
		cpu, io := m.JoinBuild(key, payload, rs)
		return cpu + io
	}
	mat := total(operators.RightMaterialized)
	mc := total(operators.RightMultiColumn)
	sc := total(operators.RightSingleColumn)
	if !(mat > mc && mc > sc && sc > 0) {
		t.Errorf("build cost ordering violated: materialized=%.0f multicolumn=%.0f singlecolumn=%.0f", mat, mc, sc)
	}
}

// TestJoinProbeCostOrdering pins the probe-side inversion: single-column
// pays the deferred positional join per output tuple, so at equal output it
// costs the most, while the materialized build's direct index is cheapest.
func TestJoinProbeCostOrdering(t *testing.T) {
	m := Paper
	payload := []ColumnStats{{Blocks: 100, Tuples: 800_000, RunLen: 1}}
	total := func(rs operators.RightStrategy) float64 {
		cpu, io := m.JoinProbe(100_000, 100_000, 1, payload, rs, 800_000)
		return cpu + io
	}
	mat := total(operators.RightMaterialized)
	mc := total(operators.RightMultiColumn)
	sc := total(operators.RightSingleColumn)
	if !(sc > mc && mc > mat && mat > 0) {
		t.Errorf("probe cost ordering violated: singlecolumn=%.0f multicolumn=%.0f materialized=%.0f", sc, mc, mat)
	}
	// More probes cost more.
	few, _ := m.JoinProbe(1_000, 1_000, 1, payload, operators.RightMaterialized, 800_000)
	many, _ := m.JoinProbe(500_000, 500_000, 1, payload, operators.RightMaterialized, 800_000)
	if many <= few {
		t.Errorf("probe cost not monotone in probes: %.0f <= %.0f", many, few)
	}
}
