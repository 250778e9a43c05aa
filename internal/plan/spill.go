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
// its match, and listed the row's chunk and offset on its partition's list.
// Pass B rebuilds each spilled partition once by rescanning the stored key
// column (bounded memory: one partition's hash table at a time, and no file)
// and probes the listed keys. A key with one match — every key of a unique
// inner key, such as the paper's FK→PK join — has its position written into
// the placeholder in place. A key with zero or several
// matches is an exception, and only the chunks that hold exceptions are
// rebuilt, each by one ordered walk that drops or expands them. Every outer
// row's matches come wholly from one partition, so spilled results are
// byte-identical to the in-memory path at every budget and worker count.

// spillException is a placeholder row (row off of the merged result's chunk
// chunk) whose key matched zero or several times, with its matches copied out
// of the partition table that is dropped next.
type spillException struct {
	chunk, off int
	matches    []int64
}

// assembleSpillMatches resolves the placeholder rows partition-at-a-time, in
// place in res. In spill mode all payload is deferred, so every row carries
// its right position in the first right-payload column (see
// runJoinProbeMorsel) for joinDeferredFetch; a join without right payload has
// no position to fill, and only its exceptions change the result.
func (p *Plan) assembleSpillMatches(ctx context.Context, probe *Node, rt *operators.PartitionedTable, res *rows.Result, parts []*partial, stats *RunStats) error {
	// A partial's chunks follow its predecessors' in the merged list (the merge
	// leaves the partials' own lists as they were).
	bases := make([]int, len(parts))
	probes := 0
	for i, pt := range parts {
		if i > 0 {
			bases[i] = bases[i-1] + len(parts[i-1].res.Chunks)
		}
		for _, list := range pt.spilled {
			for _, seg := range list {
				probes += len(seg.probes)
			}
		}
	}
	if probes == 0 {
		return nil
	}
	stats.Join.SpillProbes += int64(probes)
	pos := len(probe.LeftCols) // the first right-payload column
	hasPos := len(res.Columns) > pos

	var excs []spillException
	var matched int64
	for sp := rt.ResidentPartitions(); sp < rt.Partitions; sp++ {
		if !slices.ContainsFunc(parts, func(pt *partial) bool { return len(pt.spilled[sp]) > 0 }) {
			continue
		}
		tbl, err := rt.LoadSpilledPartition(ctx, sp)
		if err != nil {
			return err
		}
		for i, pt := range parts {
			for _, seg := range pt.spilled[sp] {
				k := bases[i] + seg.chunk
				var fill []int64 // the chunk's position column; nil without one
				if hasPos {
					fill = res.Chunks[k][pos]
				}
				for _, d := range seg.probes {
					m := tbl.Probe(d.key)
					matched += int64(len(m))
					if len(m) != 1 {
						excs = append(excs, spillException{chunk: k, off: d.off, matches: slices.Clone(m)})
					} else if fill != nil {
						fill[d.off] = m[0]
					}
				}
			}
		}
	}
	stats.Join.OutputTuples += matched
	stats.TuplesConstructed += matched
	if len(excs) == 0 || len(res.Columns) == 0 {
		return nil
	}
	slices.SortFunc(excs, func(a, b spillException) int {
		return cmp.Or(cmp.Compare(a.chunk, b.chunk), cmp.Compare(a.off, b.off))
	})
	for len(excs) > 0 {
		k := excs[0].chunk
		j := 1
		for j < len(excs) && excs[j].chunk == k {
			j++
		}
		res.Chunks[k] = expandChunk(res.Chunks[k], excs[:j], pos, hasPos)
		excs = excs[j:]
	}
	return nil
}

// expandChunk rebuilds one chunk around its exceptions (ascending offsets) in
// one ordered walk, into arrays of exactly the rows that remain: the rows
// between exceptions copy through, and an exception becomes one row per match
// — its outer values repeated, its positions (column pos, when hasPos) in
// probe order — or none.
func expandChunk(ch [][]int64, excs []spillException, pos int, hasPos bool) [][]int64 {
	n := len(ch[0])
	for _, e := range excs {
		n += len(e.matches) - 1
	}
	out := make([][]int64, len(ch))
	for c := range out {
		out[c] = make([]int64, 0, n)
	}
	g := 0 // rows of ch consumed
	for _, e := range excs {
		for c, col := range ch {
			out[c] = append(out[c], col[g:e.off]...)
			for range e.matches {
				out[c] = append(out[c], col[e.off])
			}
		}
		if hasPos {
			copy(out[pos][len(out[pos])-len(e.matches):], e.matches)
		}
		g = e.off + 1
	}
	for c, col := range ch {
		out[c] = append(out[c], col[g:]...)
	}
	return out
}
