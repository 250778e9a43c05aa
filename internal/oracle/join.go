// Package oracle holds the reference implementations the engine's tests are
// compared against: a selection, an aggregation and an equi-join, each a
// row-at-a-time loop over fully decompressed columns that shares nothing with
// the executor but the column reader and pred.Predicate.Match. Only _test
// files import it.
package oracle

import (
	"matstore/internal/pred"
	"matstore/internal/storage"
)

// NestedLoopJoin is the equi-join reference: it decompresses every column,
// then for each left row whose key passes keep, in position order, emits one
// row per right row with an equal key, in position order — the row order the
// hash join promises. It returns the output columns (leftOut..., rightOut...)
// and the number of left rows that passed keep.
func NestedLoopJoin(leftKey *storage.Column, keep pred.Predicate, leftOut []*storage.Column, rightKey *storage.Column, rightOut []*storage.Column) (out [][]int64, probes int64, err error) {
	vals, err := decompress(append(append([]*storage.Column{leftKey, rightKey}, leftOut...), rightOut...))
	if err != nil {
		return nil, 0, err
	}
	lo, ro := vals[2:2+len(leftOut)], vals[2+len(leftOut):]
	out = make([][]int64, len(lo)+len(ro))
	for i, k := range vals[0] {
		if !keep.Match(k) {
			continue
		}
		probes++
		for j, rk := range vals[1] {
			if rk != k {
				continue
			}
			for c := range lo {
				out[c] = append(out[c], lo[c][i])
			}
			for c := range ro {
				out[len(lo)+c] = append(out[len(lo)+c], ro[c][j])
			}
		}
	}
	return out, probes, nil
}
