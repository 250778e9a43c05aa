package positions

import (
	"math/bits"
	"slices"
	"sort"
)

// Piece is the part of a position set that falls inside one segment of a
// column, still in the set's own representation, so that a gather walking the
// column segment by segment consumes a bit-string as words, listed positions
// as direct indexes and ranges as copies — never one representation replayed
// as another. At most one of Words, List and Runs is non-nil; the zero Piece
// holds no position.
type Piece struct {
	// Range is the stretch of positions the piece speaks for: the segment,
	// clipped to the bit-string's extent for the Words form.
	Range Range
	// Words is a bit-string's form: bit BitOff+i says whether position
	// Range.Start+i is in the set, for i below Range.Len(). Bits outside that
	// stretch belong to neighbouring segments.
	Words  []uint64
	BitOff int
	// List is listed positions' form: the ones inside Range, ascending.
	List []int64
	// Runs is the ranges' form: those that overlap Range, ascending; the first
	// and the last may reach beyond it.
	Runs []Range
}

// Within returns the piece of s inside seg. It keeps no state between calls —
// a bit-string is sliced, a list or a run sequence binary-searched — so the
// segments of one walk may come in any order.
func Within(s Set, seg Range) Piece {
	switch s := s.(type) {
	case *Bitmap:
		r := seg.Intersect(s.Covering())
		if r.Empty() {
			return Piece{}
		}
		lo, hi := r.Start-s.start, r.End-s.start
		return Piece{Range: r, Words: s.words[lo>>6 : (hi+63)>>6], BitOff: int(lo & 63)}
	case List:
		i, _ := slices.BinarySearch(s, seg.Start)
		j, _ := slices.BinarySearch(s, seg.End)
		if i == j {
			return Piece{}
		}
		return Piece{Range: seg, List: s[i:j]}
	case Ranges:
		lo := sort.Search(len(s), func(i int) bool { return s[i].End > seg.Start })
		hi := lo
		for hi < len(s) && s[hi].Start < seg.End {
			hi++
		}
		if lo == hi {
			return Piece{}
		}
		return Piece{Range: seg, Runs: s[lo:hi]}
	case Empty:
		return Piece{}
	default:
		return Within(ToRanges(s), seg)
	}
}

// MaskWords returns the members of s inside r — which must start on a multiple
// of 64 — as bit-string words, with their number: bit i of word j stands for
// position base+64j+i, base a multiple of 64 no lower than r.Start. It is the
// form a bit-vector column is gathered in, word against word of each distinct
// value's bit-string. A bit-string's own words are returned, not copied; where
// it extends past r.End its last word keeps bits at or beyond r.End, which
// count for nothing and which no value's bit-string has set.
func MaskWords(s Set, r Range) (words []uint64, base int64, count int) {
	span := s.Covering().Intersect(r)
	if span.Empty() {
		return nil, 0, 0
	}
	if bm, ok := s.(*Bitmap); ok {
		lo, hi := span.Start-bm.start, span.End-bm.start
		words = bm.words[lo>>6 : (hi+63)>>6]
		for _, w := range words {
			count += bits.OnesCount64(w)
		}
		if tail := hi & 63; tail != 0 {
			count -= bits.OnesCount64(words[len(words)-1] >> uint(tail))
		}
		return words, span.Start, count
	}
	base = span.Start &^ 63
	bm := &Bitmap{start: base, nbits: span.End - base, words: make([]uint64, (span.End-base+63)>>6)}
	switch pc := Within(s, span); {
	case pc.List != nil:
		for _, p := range pc.List {
			bm.words[(p-base)>>6] |= 1 << uint((p-base)&63)
		}
		count = len(pc.List)
	default:
		for _, run := range pc.Runs {
			run = run.Intersect(span)
			bm.SetRange(run)
			count += int(run.Len())
		}
	}
	return bm.words, base, count
}
