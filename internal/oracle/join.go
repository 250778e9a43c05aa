// Package oracle holds the reference implementations the engine's tests are
// compared against. Only _test files import it.
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
	cols := append(append([]*storage.Column{leftKey, rightKey}, leftOut...), rightOut...)
	vals := make([][]int64, len(cols))
	for i, c := range cols {
		mc, err := c.Window(c.Extent())
		if err != nil {
			return nil, 0, err
		}
		vals[i] = mc.Decompress(nil)
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
