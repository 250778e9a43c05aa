package plan

import (
	"cmp"
	"context"
	"slices"

	"matstore/internal/operators"
	"matstore/internal/rows"
)

// This file is pass B of the Grace spill join: resolving the probes whose
// keys routed to spilled partitions. Pass A (the streaming probe morsels)
// emitted each such probe as a placeholder row — its outer values in place,
// its right position not yet known — exactly where the in-memory path emits
// its match, and listed the row on its partition's list. Pass B loads each
// spilled partition once (bounded memory: one partition's hash table at a
// time) and probes the listed keys. A key with one match — every key of a
// unique inner key, such as the paper's FK→PK join — has its position written
// into the placeholder in place. A key with zero or several matches is an
// exception, and only when exceptions exist does one ordered walk rebuild the
// result, dropping or expanding them. Every outer row's matches come wholly
// from one partition, so spilled results are byte-identical to the in-memory
// path at every budget and worker count.

// spillException is a placeholder row whose key matched zero or several times,
// with its matches copied out of the partition table that is dropped next.
type spillException struct {
	row     int
	matches []int64
}

// assembleSpillMatches resolves the placeholder rows partition-at-a-time. In
// spill mode all payload is deferred, so every row carries its right position
// in the first right-payload column (see runJoinProbeMorsel) for
// joinDeferredFetch; a join without right payload has no position to fill,
// and only its exceptions change the result.
func (p *Plan) assembleSpillMatches(ctx context.Context, probe *Node, rt *operators.PartitionedTable, res *rows.Result, parts []*partial, stats *RunStats) (*rows.Result, error) {
	// A partial's rows follow the rows its predecessors emitted: their matches
	// and their placeholders (parts[0].res is aliased by the merged result, so
	// its row count cannot be read after the merge).
	offsets := make([]int, len(parts)+1)
	probes := 0
	for i, pt := range parts {
		n := 0
		for _, list := range pt.spilled {
			n += len(list)
		}
		probes += n
		offsets[i+1] = offsets[i] + int(pt.stats.Join.OutputTuples) + n
	}
	if probes == 0 {
		return res, nil
	}
	stats.Join.SpillProbes += int64(probes)
	base := len(probe.LeftCols)
	var pos []int64 // the first right-payload column; nil without one
	if len(res.Cols) > base {
		pos = res.Cols[base]
	}

	var excs []spillException
	var matched int64
	for sp := rt.ResidentPartitions(); sp < rt.Partitions; sp++ {
		if !slices.ContainsFunc(parts, func(pt *partial) bool { return len(pt.spilled[sp]) > 0 }) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tbl, err := rt.LoadSpilledPartition(sp)
		if err != nil {
			return nil, err
		}
		for i, pt := range parts {
			for _, d := range pt.spilled[sp] {
				m, row := tbl.Probe(d.key), offsets[i]+d.row
				matched += int64(len(m))
				if len(m) != 1 {
					excs = append(excs, spillException{row: row, matches: slices.Clone(m)})
				} else if pos != nil {
					pos[row] = m[0]
				}
			}
		}
	}
	stats.Join.OutputTuples += matched
	stats.TuplesConstructed += matched
	if len(excs) == 0 {
		return res, nil
	}

	// One ordered walk: the rows between exceptions copy through, and an
	// exception becomes one row per match — its outer values repeated, its
	// positions in probe order — or none.
	slices.SortFunc(excs, func(a, b spillException) int { return cmp.Compare(a.row, b.row) })
	n := res.NumRows()
	for _, e := range excs {
		n += len(e.matches) - 1
	}
	out := rows.NewResult(p.Spec.OutNames...)
	for c := range out.Cols {
		out.Cols[c] = make([]int64, 0, n)
	}
	g := 0 // rows of res consumed
	for _, e := range excs {
		for c, col := range res.Cols {
			out.Cols[c] = append(out.Cols[c], col[g:e.row]...)
			for range e.matches {
				out.Cols[c] = append(out.Cols[c], col[e.row])
			}
		}
		if pos != nil {
			copy(out.Cols[base][len(out.Cols[base])-len(e.matches):], e.matches)
		}
		g = e.row + 1
	}
	for c, col := range res.Cols {
		out.Cols[c] = append(out.Cols[c], col[g:]...)
	}
	return out, nil
}
