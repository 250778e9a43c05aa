package datasource

// The scalar references the data-source tests hold the production paths to:
// a DS3 that re-reads the chunk window to extract values, and a DS4 that
// widens tuples one ValueAt jump and one Predicate.Match at a time. No query
// runs them.

import (
	"matstore/internal/encoding"
	"matstore/internal/positions"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
)

// DS3 produces values for a list of positions (Case 3). With the
// multi-column optimization the values come from an in-memory mini-column
// and the I/O cost is zero; without it the column is re-accessed through
// the buffer pool (warm, but paying the CPU cost of re-scanning — the LM
// re-access penalty of Section 2.2). Query execution makes that choice per
// chunk and column where it has the multi-column at hand (internal/plan's
// gatherAt: the retained mini's Extract, else storage.Column.GatherAt).
type DS3 struct {
	Col *storage.Column
}

// ValuesReaccess re-reads the chunk window from the column and extracts the
// values at ps. It is the retained scalar reference for the re-access path.
func (ds DS3) ValuesReaccess(r positions.Range, ps positions.Set, dst []int64) ([]int64, error) {
	mc, err := ds.Col.Window(r)
	if err != nil {
		return nil, err
	}
	return mc.Extract(dst, ps), nil
}

// ExtendChunk processes one input batch against the chunk's mini-column.
// The returned batch carries the input attributes plus colName. It is the
// retained scalar reference path (one ValueAt jump and one Predicate.Match
// dispatch per predicate per tuple, a fresh batch per call); query execution
// uses ExtendChunkBatched, which the tests hold to this one.
func (ds *DS4) ExtendChunk(mc encoding.MiniColumn, in *rows.Batch, colName string) *rows.Batch {
	out := rows.NewBatch(append(append([]string{}, in.Names...), colName)...)
	last := len(out.Cols) - 1
	for i := 0; i < in.Len(); i++ {
		pos := in.Pos[i]
		v := mc.ValueAt(pos)
		if !pred.MatchConj(ds.Conj.Preds, v) {
			continue
		}
		out.Pos = append(out.Pos, pos)
		for c := range in.Cols {
			out.Cols[c] = append(out.Cols[c], in.Cols[c][i])
		}
		out.Cols[last] = append(out.Cols[last], v)
	}
	return out
}
