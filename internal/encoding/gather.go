package encoding

import (
	"fmt"
	"slices"
	"sort"

	"matstore/internal/kernels"
	"matstore/internal/positions"
)

// This file is the gather over plain and run-length-encoded data — "given
// positions, produce values", data source case 3 — written once for both
// places it runs: a mini-column's in-memory window (Extract) and a stored
// column's blocks (storage.Column.GatherAt). The column is walked segment by
// segment; under each segment the position descriptor is taken in its own
// representation (positions.Within) and handed to the matching form of the
// kernels' gather: a bit-string's words are consumed 64 positions at a time,
// the way the filter that produced them emitted them; listed positions index
// the segment directly; ranges copy. Run-length-encoded data answers from its
// runs — each run fills as many slots as the descriptor holds positions under
// it — without being expanded first.

// Segment is one contiguous stretch of a plain or run-length-encoded column.
type Segment struct {
	Cover positions.Range
	// Vals is a plain segment: the value at position Cover.Start+i.
	Vals []int64
	// Triples is a run-length-encoded segment: the runs tiling Cover.
	Triples []Triple
}

// Segments is a plain or run-length-encoded column as Gather walks it:
// ascending segments that tile Covering without a gap. A segment's data is
// held between Pin and Unpin only — a stored column pins the block in its
// buffer pool for just that long.
type Segments interface {
	Covering() positions.Range
	NumSegments() int
	SegmentCover(i int) positions.Range
	Pin(i int) (Segment, error)
	Unpin(i int)
}

// Gather appends to dst the values of src at every position of ps, in position
// order; positions outside src's covering range are ignored. A segment under
// which the descriptor holds no position is never pinned. dst grows by each
// segment's position count before that segment is gathered, so a destination
// sized by the caller is never regrown.
func Gather(dst []int64, src Segments, ps positions.Set) ([]int64, error) {
	span := ps.Covering().Intersect(src.Covering())
	if span.Empty() {
		return dst, nil
	}
	n := src.NumSegments()
	i := 0
	if n > 1 {
		i = sort.Search(n, func(i int) bool { return src.SegmentCover(i).End > span.Start })
	}
	for ; i < n; i++ {
		cover := src.SegmentCover(i)
		if cover.Start >= span.End {
			break
		}
		pc := positions.Within(ps, cover)
		k := pieceCount(pc)
		if k == 0 {
			continue
		}
		seg, err := src.Pin(i)
		if err != nil {
			return dst, err
		}
		at := len(dst)
		dst = slices.Grow(dst, k)[:at+k]
		if seg.Triples != nil {
			seg.gatherRuns(dst[at:], pc)
		} else {
			seg.gatherValues(dst[at:], pc)
		}
		src.Unpin(i)
	}
	return dst, nil
}

// pieceCount returns the number of positions pc holds.
func pieceCount(pc positions.Piece) int {
	switch {
	case pc.Words != nil:
		return kernels.CountMaskRange(pc.Words, pc.BitOff, pc.BitOff+int(pc.Range.Len()))
	case pc.List != nil:
		return len(pc.List)
	}
	k := 0
	for _, r := range pc.Runs {
		k += int(r.Intersect(pc.Range).Len())
	}
	return k
}

// gatherValues writes a plain segment's values at pc's positions over dst,
// which is exactly as long as pc holds positions.
func (s Segment) gatherValues(dst []int64, pc positions.Piece) {
	switch {
	case pc.Words != nil:
		vals := s.Vals[pc.Range.Start-s.Cover.Start : pc.Range.End-s.Cover.Start]
		kernels.CompactByMask(dst, vals, pc.Words, pc.BitOff)
	case pc.List != nil:
		kernels.GatherList(dst, s.Vals, pc.List, s.Cover.Start)
	default:
		for _, r := range pc.Runs {
			r = r.Intersect(pc.Range)
			dst = dst[copy(dst, s.Vals[r.Start-s.Cover.Start:r.End-s.Cover.Start]):]
		}
	}
}

// gatherRuns is gatherValues over a run-length-encoded segment: every run
// fills as many slots as pc holds positions under it — the popcount of the
// descriptor's words under the run, the listed positions below its end, its
// overlap with a range.
func (s Segment) gatherRuns(dst []int64, pc positions.Piece) {
	ts := s.Triples
	tj := sort.Search(len(ts), func(j int) bool { return ts[j].End() > pc.Range.Start })
	switch {
	case pc.Words != nil:
		bit0 := pc.Range.Start - int64(pc.BitOff) // the position bit 0 of Words stands for
		for pos := pc.Range.Start; pos < pc.Range.End; tj++ {
			end := min(ts[tj].End(), pc.Range.End)
			k := kernels.CountMaskRange(pc.Words, int(pos-bit0), int(end-bit0))
			kernels.Fill(dst[:k], ts[tj].Value)
			dst, pos = dst[k:], end
		}
	case pc.List != nil:
		for l := pc.List; len(l) > 0; tj++ {
			end := ts[tj].End()
			k := 0
			for k < len(l) && l[k] < end {
				k++
			}
			kernels.Fill(dst[:k], ts[tj].Value)
			dst, l = dst[k:], l[k:]
		}
	default:
		for _, r := range pc.Runs {
			r = r.Intersect(pc.Range)
			for ts[tj].End() <= r.Start {
				tj++
			}
			for pos := r.Start; ; tj++ {
				end := min(ts[tj].End(), r.End)
				kernels.Fill(dst[:end-pos], ts[tj].Value)
				dst, pos = dst[end-pos:], end
				if pos == r.End {
					break // the next range may start inside this run
				}
			}
		}
	}
}

// Unordered batches gathers at arbitrary positions — unsorted and possibly
// repeated, as a join probe produces right positions (in left probe order) —
// onto an ascending-position gather. The zero value is ready to use; one kept
// from call to call recycles the window it extracts into.
type Unordered struct{ window []int64 }

// Gather appends to dst the values at ps[0], ps[1], …, all inside extent,
// through ordered, the ascending-position gather of whatever holds the values:
// a stored column's GatherAt, a retained mini-column's Extract. Dense inputs
// (positions covering a bounded span, the common join shape: many probe
// matches over a small inner table) materialize the covering window once with
// one ordered gather and index it directly; sparse inputs are sorted,
// deduplicated, fetched with one ordered gather, and scattered back to input
// order. Either way the source is walked once, in position order, no matter
// how shuffled the input is. dst may be ps[:0]: each value is stored after its
// position has been read, so a position list can be overwritten in place by
// the values at those positions.
func (u *Unordered) Gather(dst, ps []int64, extent positions.Range, ordered func(positions.Set, []int64) ([]int64, error)) ([]int64, error) {
	if len(ps) == 0 {
		return dst, nil
	}
	lo, hi := ps[0], ps[0]
	for _, p := range ps[1:] {
		lo, hi = min(lo, p), max(hi, p)
	}
	if lo < extent.Start || hi >= extent.End {
		return dst, fmt.Errorf("encoding: gather position out of range %v", extent)
	}
	at := len(dst)
	dst = slices.Grow(dst, len(ps))[:at+len(ps)]
	var err error
	if spread := hi - lo + 1; spread <= int64(len(ps))*8 {
		// Dense: one contiguous gather of the covering span, then direct
		// indexing — no sort, no per-output binary search.
		u.window, err = ordered(positions.Ranges{{Start: lo, End: hi + 1}}, slices.Grow(u.window[:0], int(spread)))
		if err != nil {
			return dst[:at], err
		}
		kernels.GatherList(dst[at:], u.window, ps, lo)
		return dst, nil
	}
	uniq := slices.Clone(ps)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	if u.window, err = ordered(positions.List(uniq), slices.Grow(u.window[:0], len(uniq))); err != nil {
		return dst[:at], err
	}
	for i, p := range ps {
		j, _ := slices.BinarySearch(uniq, p)
		dst[at+i] = u.window[j]
	}
	return dst, nil
}
