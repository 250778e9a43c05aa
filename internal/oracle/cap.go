package oracle

import (
	"fmt"
	"slices"

	"matstore/internal/rows"
)

// Limits are the row caps the differential suites run a query of total rows
// under: none, one row, the service's default of 100, and one more than there
// are.
func Limits(total int) []int { return []int{0, 1, 100, total + 1} }

// Columns returns every column of a result in one array each, nil for a
// result that holds no row: the form Select, Aggregate and NestedLoopJoin
// return, whatever chunks the result's rows were emitted in.
func Columns(r *rows.Result) [][]int64 {
	out := make([][]int64, len(r.Columns))
	for c := range out {
		out[c] = r.Column(c)
	}
	return out
}

// Capped is the reference for a run's row cap: given the full result cols
// (one slice per output column, as Select, Aggregate and NestedLoopJoin return
// them), a run capped at limit (<= 0: uncapped) owes the first limit rows in
// its chunks, the number of rows in Total and every column's wrapping sum over
// all rows in Sums. It reports how got departs from that, nil when it does not.
func Capped(got *rows.Result, full [][]int64, limit int) error {
	total := 0
	if len(full) > 0 {
		total = len(full[0])
	}
	keep := total
	if limit > 0 && limit < total {
		keep = limit
	}
	if len(got.Columns) != len(full) || len(got.Sums) != len(full) {
		return fmt.Errorf("%d columns and %d sums, want %d", len(got.Columns), len(got.Sums), len(full))
	}
	if got.Total != int64(total) {
		return fmt.Errorf("Total %d, want %d", got.Total, total)
	}
	for c, col := range full {
		if held := got.Column(c); !slices.Equal(held, col[:keep]) {
			return fmt.Errorf("column %d holds %d rows that are not the reference's first %d of %d", c, len(held), keep, total)
		}
		var sum int64
		for _, v := range col {
			sum += v
		}
		if got.Sums[c] != sum {
			return fmt.Errorf("column %d sums to %d, want %d", c, got.Sums[c], sum)
		}
	}
	return nil
}
