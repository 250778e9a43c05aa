package operators

import (
	"matstore/internal/kernels"
	"matstore/internal/pred"
	"matstore/internal/rows"
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

// Chunk constructs the output tuples of one chunk: cols are its k full-chunk
// decompressed vectors (EM decompresses early — that is the point), walked in
// lockstep. Each filter's kernel runs over its whole vector into a mask, the
// masks are ANDed, and every output column is then built by compacting its
// input vector through the conjunction — column at a time, with exactly the
// surviving row count reserved on dst beforehand (dst must have one column per
// output column). Tuples are appended to dst; their number is returned.
//
// The model charges this operator Π SF_j — the j-th column touched only for
// rows that survived predicates 1..j-1. That term is a cost model, not a
// description of this loop: a kernel evaluates all n values of its column at
// well under a nanosecond each, which is cheaper than finding the survivors to
// skip the others. What does follow the data is the survivor count each AND
// returns: once it is zero the remaining filters and all construction are
// skipped.
func (s *SPC) Chunk(cols [][]int64, dst *rows.Result) int64 {
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
	if count == 0 {
		return 0
	}
	dst.Reserve(count)
	for c, idx := range s.outIdx {
		col := dst.Cols[c]
		off := len(col)
		col = col[:off+count]
		kernels.CompactByMask(col[off:], cols[idx][:n], s.mask, 0)
		dst.Cols[c] = col
	}
	return int64(count)
}
