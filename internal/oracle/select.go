package oracle

import (
	"fmt"
	"slices"

	"matstore/internal/pred"
	"matstore/internal/storage"
)

// Filter is one conjunct of a reference WHERE clause.
type Filter struct {
	Col  *storage.Column
	Pred pred.Predicate
}

// decompress reads every column whole.
func decompress(cols []*storage.Column) ([][]int64, error) {
	vals := make([][]int64, len(cols))
	for i, c := range cols {
		mc, err := c.Window(c.Extent())
		if err != nil {
			return nil, err
		}
		vals[i] = mc.Decompress(nil)
	}
	return vals, nil
}

// Select is the selection reference: it decompresses every column, then walks
// the rows in position order and, for each row whose values pass every
// filter, emits the row's out values — one predicate test per row per filter,
// no positions, no fusion, no chunks. It returns one slice per out column, in
// position order: the row order every strategy promises.
func Select(filters []Filter, out []*storage.Column) ([][]int64, error) {
	cols := make([]*storage.Column, len(filters), len(filters)+len(out))
	for i, f := range filters {
		cols[i] = f.Col
	}
	vals, err := decompress(append(cols, out...))
	if err != nil {
		return nil, err
	}
	fv, ov := vals[:len(filters)], vals[len(filters):]
	res := make([][]int64, len(out))
	if len(vals) == 0 {
		return res, nil
	}
rows:
	for i := range vals[0] {
		for f := range filters {
			if !filters[f].Pred.Match(fv[f][i]) {
				continue rows
			}
		}
		for c := range ov {
			res[c] = append(res[c], ov[c][i])
		}
	}
	return res, nil
}

// Aggregate is the aggregation reference, fn(aggCol) GROUP BY groupBy over
// the rows Select keeps, fn one of "sum", "count", "avg" (the truncated
// integer quotient), "min" and "max": one map update per row. It returns the
// group keys ascending and each group's aggregate beside it.
func Aggregate(filters []Filter, groupBy, aggCol *storage.Column, fn string) (keys, aggs []int64, err error) {
	kept, err := Select(filters, []*storage.Column{groupBy, aggCol})
	if err != nil {
		return nil, nil, err
	}
	type group struct{ sum, count, min, max int64 }
	groups := map[int64]*group{}
	for i, k := range kept[0] {
		v := kept[1][i]
		g, ok := groups[k]
		if !ok {
			g = &group{min: v, max: v}
			groups[k] = g
			keys = append(keys, k)
		}
		g.sum += v
		g.count++
		g.min, g.max = min(g.min, v), max(g.max, v)
	}
	slices.Sort(keys)
	for _, k := range keys {
		g := groups[k]
		switch fn {
		case "sum":
			aggs = append(aggs, g.sum)
		case "count":
			aggs = append(aggs, g.count)
		case "avg":
			aggs = append(aggs, g.sum/g.count)
		case "min":
			aggs = append(aggs, g.min)
		case "max":
			aggs = append(aggs, g.max)
		default:
			return nil, nil, fmt.Errorf("oracle: unknown aggregate %q", fn)
		}
	}
	return keys, aggs, nil
}
