// Package operators implements the query-plan operators above the data
// sources: the n-ary MERGE tuple constructor (Section 3.4), the SPC
// scan-predicate-construct leaf (Section 3.4), aggregation that can operate
// directly on compressed data (Section 4.2), and the hash join with the
// three inner-table materialization strategies of Section 4.3. Position
// intersection (the AND operator of Section 3.3) lives in
// internal/positions and internal/multicol, since it is pure position
// algebra.
package operators

import (
	"fmt"

	"matstore/internal/rows"
)

// Merger is the n-ary MERGE operator: it combines k aligned value streams
// (one per output attribute, all extracted at the same positions) into
// k-ary output tuples. It sits at the top of LM plans; its cost is the
// tuple-construction cost the analytical model charges in Figure 5.
type Merger struct {
	res *rows.Result
	// TuplesConstructed counts output tuples built, for the harness's
	// tuple-construction accounting.
	TuplesConstructed int64
}

// NewMerger returns a Merger producing the given output schema.
func NewMerger(outCols ...string) *Merger {
	return &Merger{res: rows.NewResult(outCols...)}
}

// MergeChunk appends one chunk's aligned value vectors. Every vector must
// have the same length and the arity must match the output schema.
func (m *Merger) MergeChunk(cols ...[]int64) error {
	if len(cols) != len(m.res.Cols) {
		return fmt.Errorf("operators: merge arity %d, want %d", len(cols), len(m.res.Cols))
	}
	n := -1
	for _, c := range cols {
		if n == -1 {
			n = len(c)
		} else if len(c) != n {
			return fmt.Errorf("operators: merge input lengths differ (%d vs %d)", len(c), n)
		}
	}
	m.res.Reserve(n)
	for i, c := range cols {
		m.res.Cols[i] = append(m.res.Cols[i], c...)
	}
	m.TuplesConstructed += int64(n)
	return nil
}

// Result returns the accumulated output.
func (m *Merger) Result() *rows.Result { return m.res }
