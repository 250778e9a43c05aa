// Package positions implements the position-set representations used by the
// late-materialization executor: position ranges, explicit position lists,
// and bitmaps (bit-strings), together with the intersection (AND) machinery
// described in Section 3.3 of Abadi et al., "Materialization Strategies in a
// Column-Oriented DBMS" (ICDE 2007).
//
// Positions are 0-based ordinal offsets of values within a column. All three
// representations describe the same abstraction — a finite set of positions —
// and every operator in the executor is written against the Set interface,
// with fast paths for the concrete representation pairs the paper calls out
// (range×range → range, bitmap×bitmap → word-at-a-time AND, range×bitmap →
// bitmap slice).
package positions

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Range is a half-open interval [Start, End) of positions. The zero Range is
// empty.
type Range struct {
	Start int64
	End   int64
}

// Len returns the number of positions covered by r.
func (r Range) Len() int64 {
	if r.End <= r.Start {
		return 0
	}
	return r.End - r.Start
}

// Empty reports whether r covers no positions.
func (r Range) Empty() bool { return r.End <= r.Start }

// Contains reports whether pos lies within r.
func (r Range) Contains(pos int64) bool { return pos >= r.Start && pos < r.End }

// Intersect returns the overlap of r and o (possibly empty).
func (r Range) Intersect(o Range) Range {
	s, e := r.Start, r.End
	if o.Start > s {
		s = o.Start
	}
	if o.End < e {
		e = o.End
	}
	if e < s {
		e = s
	}
	return Range{s, e}
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// Kind identifies the concrete representation of a Set.
type Kind uint8

const (
	// KindEmpty is the canonical empty set.
	KindEmpty Kind = iota
	// KindRanges is a sorted sequence of disjoint position ranges.
	KindRanges
	// KindList is a sorted list of individual positions.
	KindList
	// KindBitmap is a bit-string with one bit per position.
	KindBitmap
)

func (k Kind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindRanges:
		return "ranges"
	case KindList:
		return "list"
	case KindBitmap:
		return "bitmap"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Set is a finite set of column positions. Implementations are immutable once
// built; operators share them freely across chunks.
type Set interface {
	// Kind reports the concrete representation.
	Kind() Kind
	// Count returns the number of positions in the set.
	Count() int64
	// Covering returns the smallest range containing every position
	// (the zero Range for an empty set).
	Covering() Range
	// Contains reports membership of a single position.
	Contains(pos int64) bool
	// Runs returns an iterator over maximal runs of consecutive positions,
	// in ascending order.
	Runs() *RunIter
}

// Empty is the empty position set.
type Empty struct{}

// Kind returns KindEmpty.
func (Empty) Kind() Kind { return KindEmpty }

// Count returns 0.
func (Empty) Count() int64 { return 0 }

// Covering returns the zero range.
func (Empty) Covering() Range { return Range{} }

// Contains returns false.
func (Empty) Contains(int64) bool { return false }

// Runs returns an exhausted iterator.
func (Empty) Runs() *RunIter { return &RunIter{} }

// Ranges is a sorted sequence of disjoint, non-adjacent, non-empty ranges.
// A single-element Ranges is the paper's "position range" representation;
// multi-element Ranges arise naturally from predicates over RLE columns.
type Ranges []Range

// NewRanges builds a Ranges set from arbitrary input ranges: they are sorted,
// empty ranges dropped, and overlapping or adjacent ranges coalesced.
func NewRanges(rs ...Range) Ranges {
	out := make(Ranges, 0, len(rs))
	for _, r := range rs {
		if !r.Empty() {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r.Start <= merged[n-1].End {
			if r.End > merged[n-1].End {
				merged[n-1].End = r.End
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// Kind returns KindRanges.
func (rs Ranges) Kind() Kind { return KindRanges }

// Count returns the total number of positions across all ranges.
func (rs Ranges) Count() int64 {
	var n int64
	for _, r := range rs {
		n += r.Len()
	}
	return n
}

// Covering returns the range from the first start to the last end.
func (rs Ranges) Covering() Range {
	if len(rs) == 0 {
		return Range{}
	}
	return Range{rs[0].Start, rs[len(rs)-1].End}
}

// Contains performs a binary search for pos.
func (rs Ranges) Contains(pos int64) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].End > pos })
	return i < len(rs) && rs[i].Contains(pos)
}

// Runs iterates the ranges directly.
func (rs Ranges) Runs() *RunIter { return &RunIter{ranges: rs} }

func (rs Ranges) String() string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// List is a sorted list of distinct positions. It is the paper's "listed
// positions" descriptor, useful when few positions inside a chunk are valid.
type List []int64

// Kind returns KindList.
func (l List) Kind() Kind { return KindList }

// Count returns the list length.
func (l List) Count() int64 { return int64(len(l)) }

// Covering spans the first to last position.
func (l List) Covering() Range {
	if len(l) == 0 {
		return Range{}
	}
	return Range{l[0], l[len(l)-1] + 1}
}

// Contains performs a binary search.
func (l List) Contains(pos int64) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= pos })
	return i < len(l) && l[i] == pos
}

// Runs coalesces consecutive positions into runs on the fly.
func (l List) Runs() *RunIter { return &RunIter{list: l} }

// Bitmap is a bit-string position descriptor: bit i set means position
// start+i is in the set. The start is always 64-aligned in this codebase
// (chunks and bit-vector blocks are 64-aligned), which keeps bitmap-bitmap
// ANDs word-parallel.
type Bitmap struct {
	start int64
	nbits int64
	words []uint64
}

// NewBitmap returns an all-zero bitmap covering [start, start+nbits).
// start must be 64-aligned.
func NewBitmap(start, nbits int64) *Bitmap {
	if start%64 != 0 {
		panic(fmt.Sprintf("positions: bitmap start %d not 64-aligned", start))
	}
	if nbits < 0 {
		panic("positions: negative bitmap size")
	}
	return &Bitmap{start: start, nbits: nbits, words: make([]uint64, (nbits+63)/64)}
}

// BitmapFromWords wraps an existing word slice as a bitmap without copying.
// Callers must not mutate words afterwards. Trailing bits beyond nbits must
// be zero.
func BitmapFromWords(start, nbits int64, words []uint64) *Bitmap {
	if start%64 != 0 {
		panic(fmt.Sprintf("positions: bitmap start %d not 64-aligned", start))
	}
	if int64(len(words)) < (nbits+63)/64 {
		panic("positions: word slice too short for bitmap")
	}
	return &Bitmap{start: start, nbits: nbits, words: words[:(nbits+63)/64]}
}

// Start returns the position of bit 0.
func (b *Bitmap) Start() int64 { return b.start }

// NBits returns the number of addressable bits.
func (b *Bitmap) NBits() int64 { return b.nbits }

// Words exposes the underlying storage: read-only by convention, except to the
// filter kernels that emit into a bitmap they are filling.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set marks position pos as present. pos must lie within the bitmap extent.
func (b *Bitmap) Set(pos int64) {
	i := pos - b.start
	if i < 0 || i >= b.nbits {
		panic(fmt.Sprintf("positions: Set(%d) outside bitmap %v", pos, b.Covering()))
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// SetRange marks every position in r as present. r must lie within the
// bitmap extent.
func (b *Bitmap) SetRange(r Range) {
	if r.Empty() {
		return
	}
	lo, hi := r.Start-b.start, r.End-b.start
	if lo < 0 || hi > b.nbits {
		panic(fmt.Sprintf("positions: SetRange(%v) outside bitmap [%d,%d)", r, b.start, b.start+b.nbits))
	}
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if lw == hw {
		b.words[lw] |= loMask & hiMask
		return
	}
	b.words[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[hw] |= hiMask
}

// Kind returns KindBitmap.
func (b *Bitmap) Kind() Kind { return KindBitmap }

// Count popcounts the words.
func (b *Bitmap) Count() int64 {
	var n int
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// Covering returns the extent of the bitmap (not the min/max set bit): the
// paper's position descriptor semantics, where the covering range is a
// property of the chunk, not of which bits happen to be set.
func (b *Bitmap) Covering() Range { return Range{b.start, b.start + b.nbits} }

// Contains tests a single bit.
func (b *Bitmap) Contains(pos int64) bool {
	i := pos - b.start
	if i < 0 || i >= b.nbits {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Runs iterates maximal runs of set bits.
func (b *Bitmap) Runs() *RunIter { return &RunIter{bm: b, bmPos: 0} }

// Or sets every bit of o in b. The two bitmaps must have identical extents.
func (b *Bitmap) Or(o *Bitmap) {
	if b.start != o.start || b.nbits != o.nbits {
		panic("positions: Or on mismatched bitmaps")
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// AndWith clears every bit of b not present in o. Extents must match.
func (b *Bitmap) AndWith(o *Bitmap) {
	if b.start != o.start || b.nbits != o.nbits {
		panic("positions: AndWith on mismatched bitmaps")
	}
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// Clone returns a deep copy of b.
func (b *Bitmap) Clone() *Bitmap {
	words := make([]uint64, len(b.words))
	copy(words, b.words)
	return &Bitmap{start: b.start, nbits: b.nbits, words: words}
}

// RunIter iterates over maximal runs of consecutive positions in a Set, in
// ascending order. It is the single iteration abstraction shared by all
// representations, which keeps RLE-friendly operators representation-blind.
type RunIter struct {
	ranges Ranges
	ri     int

	list List
	li   int

	bm    *Bitmap
	bmPos int64
}

// Next returns the next run and true, or a zero Range and false when the
// iterator is exhausted.
func (it *RunIter) Next() (Range, bool) {
	switch {
	case it.ranges != nil:
		if it.ri >= len(it.ranges) {
			return Range{}, false
		}
		r := it.ranges[it.ri]
		it.ri++
		return r, true
	case it.list != nil:
		if it.li >= len(it.list) {
			return Range{}, false
		}
		start := it.list[it.li]
		end := start + 1
		it.li++
		for it.li < len(it.list) && it.list[it.li] == end {
			end++
			it.li++
		}
		return Range{start, end}, true
	case it.bm != nil:
		return it.nextBitmapRun()
	default:
		return Range{}, false
	}
}

func (it *RunIter) nextBitmapRun() (Range, bool) {
	b := it.bm
	i := it.bmPos
	// Find the next set bit at or after i.
	for i < b.nbits {
		w := b.words[i>>6] >> uint(i&63)
		if w == 0 {
			i = (i>>6 + 1) << 6
			continue
		}
		i += int64(bits.TrailingZeros64(w))
		break
	}
	if i >= b.nbits {
		it.bmPos = b.nbits
		return Range{}, false
	}
	start := i
	// Find the next clear bit after start. The complement of a shifted word
	// has artificial set bits above the valid region, so mask those off
	// before testing.
	for i < b.nbits {
		nw := ^(b.words[i>>6] >> uint(i&63))
		if valid := 64 - i&63; valid < 64 {
			nw &= (1 << uint(valid)) - 1
		}
		if nw == 0 {
			i = (i>>6 + 1) << 6
			continue
		}
		i += int64(bits.TrailingZeros64(nw))
		break
	}
	if i > b.nbits {
		i = b.nbits
	}
	it.bmPos = i
	return Range{b.start + start, b.start + i}, true
}

// Slice materializes every position in s into a []int64, mainly for tests
// and small result sets.
func Slice(s Set) []int64 {
	out := make([]int64, 0, s.Count())
	it := s.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		for p := r.Start; p < r.End; p++ {
			out = append(out, p)
		}
	}
}
