package operators

import (
	"matstore/internal/pred"
	"matstore/internal/rows"
)

// IndexedPred applies Pred to column index Col of an SPC input.
type IndexedPred struct {
	Col  int
	Pred pred.Predicate
}

// SPCChunk is the Scan-Predicate-Construct leaf of EM-parallel plans
// (Figure 6 of the paper): it walks k decompressed column vectors in
// lockstep, applies every predicate to each row, and constructs an output
// tuple for the rows where all predicates pass. Predicates short-circuit in
// order, mirroring the model's Π SF_j term: the j-th column's values are
// touched only for rows that survived predicates 1..j-1.
//
// cols are full-chunk decompressed vectors (EM decompresses early — that is
// the point); outIdx selects which input columns feed each output column.
// Constructed tuples are appended column-wise directly onto dst (which must
// have len(outIdx) columns); the number of constructed tuples is returned.
// dst is reserved once for the whole chunk and predicates are compiled before
// the row loop, which is then indexed loads and stores only.
func SPCChunk(cols [][]int64, filters []IndexedPred, outIdx []int, dst *rows.Result) int64 {
	if len(cols) == 0 {
		return 0
	}
	n := len(cols[0])
	type filter struct {
		match pred.Matcher
		vals  []int64
	}
	fs := make([]filter, len(filters))
	for f, ip := range filters {
		fs[f] = filter{pred.CompileMatcher(ip.Pred), cols[ip.Col][:n]}
	}
	dst.Reserve(n)
	off := dst.NumRows()
	out := dst.Cols[:len(outIdx)]
	for c := range out {
		out[c] = out[c][:off+n]
	}
	w := off
rowLoop:
	for i := 0; i < n; i++ {
		for _, f := range fs {
			if !f.match(f.vals[i]) {
				continue rowLoop
			}
		}
		for c, idx := range outIdx {
			out[c][w] = cols[idx][i]
		}
		w++
	}
	for c := range out {
		out[c] = out[c][:w]
	}
	return int64(w - off)
}
