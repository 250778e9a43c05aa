// Package operators implements the query-plan operators above the data
// sources: the SPC scan-predicate-construct leaf (Section 3.4), aggregation
// that can operate directly on compressed data (Section 4.2), and the hash
// join with the three inner-table materialization strategies of Section 4.3.
// The n-ary MERGE of LM plans (Section 3.4) is no operator of its own: the
// plan executor gathers each output column straight into the chunk of the
// result that holds it (internal/plan). Position intersection (the AND
// operator of Section 3.3) lives in internal/positions and internal/multicol,
// since it is pure position algebra.
package operators

import (
	"matstore/internal/kernels"
	"matstore/internal/pred"
)

// IndexedPred applies Pred to column index Col of an SPC input.
type IndexedPred struct {
	Col  int
	Pred pred.Predicate
}

// SPC is the Scan-Predicate-Construct leaf of EM-parallel plans (Figure 6 of
// the paper) in compiled form: one vectorized kernel per filter, the output
// column mapping, and the selection-mask scratch its chunks share. Compile one
// per morsel; it is not safe for concurrent use, and the mask it holds
// describes only the chunk last passed to Chunk.
type SPC struct {
	filters []spcFilter
	outIdx  []int
	mask    []uint64 // the conjunction so far
	scratch []uint64 // one later filter's result, ANDed into mask
}

type spcFilter struct {
	col    int
	kernel pred.Kernel
}

// CompileSPC compiles the leaf: filters apply to input columns by index and
// outIdx selects which input columns feed each output column.
func CompileSPC(filters []IndexedPred, outIdx []int) *SPC {
	s := &SPC{filters: make([]spcFilter, len(filters)), outIdx: outIdx}
	for i, f := range filters {
		s.filters[i] = spcFilter{f.Col, pred.Compile(f.Pred)}
	}
	if len(filters) == 0 {
		// No predicate selects every row: the mask is still what construction
		// runs on, so there is one construction loop, not two.
		s.filters = []spcFilter{{0, pred.Compile(pred.MatchAll)}}
	}
	return s
}

// Chunk evaluates the filters over one chunk and returns how many of its rows
// survive them all; Construct then writes those rows. cols are the chunk's k
// full-chunk decompressed vectors (EM decompresses early — that is the point),
// walked in lockstep: each filter's kernel runs over its whole vector into a
// mask and the masks are ANDed.
//
// The model charges this operator Π SF_j — the j-th column touched only for
// rows that survived predicates 1..j-1. That term is a cost model, not a
// description of this loop: a kernel evaluates all n values of its column at
// well under a nanosecond each, which is cheaper than finding the survivors to
// skip the others. What does follow the data is the survivor count each AND
// returns: once it is zero the remaining filters are skipped, and so is
// construction — the caller has nothing to ask room for.
func (s *SPC) Chunk(cols [][]int64) int {
	if len(cols) == 0 {
		return 0
	}
	n := len(cols[0])
	s.mask = kernels.GrowMask(s.mask, n)
	first := s.filters[0]
	first.kernel(cols[first.col][:n], s.mask)
	count := kernels.CountMask(s.mask, n)
	for _, f := range s.filters[1:] {
		if count == 0 {
			break
		}
		s.scratch = kernels.GrowMask(s.scratch, n)
		f.kernel(cols[f.col][:n], s.scratch)
		count = kernels.AndMask(s.mask, s.scratch, n)
	}
	return count
}

// Construct builds the output tuples of the chunk last passed to Chunk, column
// at a time: every output column is its input vector compacted through the
// conjunction into out's array for it, which the caller sized to Chunk's count
// (one result chunk, or the recycled key/value vectors of an aggregation).
func (s *SPC) Construct(cols, out [][]int64) {
	n := len(cols[0])
	for c, idx := range s.outIdx {
		kernels.CompactByMask(out[c], cols[idx][:n], s.mask, 0)
	}
}
