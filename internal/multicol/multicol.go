// Package multicol implements the multi-column data structure of Section
// 3.6: an in-memory horizontal partition of a subset of a relation's
// attributes, consisting of a covering position range and an array of
// mini-columns (one per attribute, kept in native compressed form).
//
// The paper's position descriptor — which positions within the range remain
// valid as predicates are applied — is the position set the plan executor
// computes for the chunk; it travels beside the multi-column, not in it. A
// DS3 operator downstream reads a mini-column attached here to produce values
// without re-accessing the column.
package multicol

import (
	"fmt"

	"matstore/internal/encoding"
	"matstore/internal/positions"
)

// MultiColumn is one horizontal partition flowing up a late-materialization
// plan.
type MultiColumn struct {
	cov   positions.Range
	minis map[string]encoding.MiniColumn
}

// New creates a multi-column covering cov, holding no mini-columns yet.
func New(cov positions.Range) *MultiColumn {
	return &MultiColumn{cov: cov, minis: make(map[string]encoding.MiniColumn)}
}

// Attach adds (or replaces) the mini-column for an attribute. The
// mini-column must cover the multi-column's range.
func (m *MultiColumn) Attach(name string, mc encoding.MiniColumn) {
	if mc.Covering() != m.cov && !mc.Covering().Empty() {
		panic(fmt.Sprintf("multicol: mini-column %s covers %v, multi-column covers %v",
			name, mc.Covering(), m.cov))
	}
	m.minis[name] = mc
}

// Mini returns the mini-column for an attribute, if attached.
func (m *MultiColumn) Mini(name string) (encoding.MiniColumn, bool) {
	mc, ok := m.minis[name]
	return mc, ok
}
