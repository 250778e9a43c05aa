package positions

// This file implements the AND operator cases of Section 3.3:
//
//	Case 1: range inputs, range output.
//	Case 2: bit-list inputs, bit-list output (word-at-a-time AND).
//	Case 3: mixed inputs: ranges are intersected first, bit-lists ANDed,
//	        then the single range list is applied to the bit-list.
//
// And() dispatches to the fast path for each pair of the three
// representations.

// And returns the intersection of a and b, choosing the output
// representation per the paper: ranges×ranges yields ranges; any operand
// that is a bitmap yields a bitmap; list operands yield lists.
func And(a, b Set) Set {
	if a.Kind() == KindEmpty || b.Kind() == KindEmpty {
		return Empty{}
	}
	cov := a.Covering().Intersect(b.Covering())
	if cov.Empty() {
		return Empty{}
	}
	switch x := a.(type) {
	case Ranges:
		switch y := b.(type) {
		case Ranges:
			return andRanges(x, y)
		case *Bitmap:
			return andRangesBitmap(x, y)
		case List:
			return andRangesList(x, y)
		}
	case *Bitmap:
		switch y := b.(type) {
		case *Bitmap:
			return andBitmaps(x, y)
		case Ranges:
			return andRangesBitmap(y, x)
		case List:
			return andBitmapList(x, y)
		}
	case List:
		switch y := b.(type) {
		case List:
			return andLists(x, y)
		case Ranges:
			return andRangesList(y, x)
		case *Bitmap:
			return andBitmapList(y, x)
		}
	}
	panic("positions: And of " + a.Kind().String() + " and " + b.Kind().String())
}

// AndAll intersects an arbitrary number of sets. Per the paper's Case 3, all
// range-represented inputs are intersected together first (cheap), then
// bit-lists are ANDed word-parallel, then the two intermediates combined.
func AndAll(sets ...Set) Set {
	if len(sets) == 0 {
		return Empty{}
	}
	var ranged Set
	var bits Set
	var others []Set
	for _, s := range sets {
		switch s.Kind() {
		case KindEmpty:
			return Empty{}
		case KindRanges:
			if ranged == nil {
				ranged = s
			} else {
				ranged = And(ranged, s)
			}
		case KindBitmap:
			if bits == nil {
				bits = s
			} else {
				bits = And(bits, s)
			}
		default:
			others = append(others, s)
		}
	}
	out := ranged
	if bits != nil {
		if out == nil {
			out = bits
		} else {
			out = And(out, bits)
		}
	}
	for _, s := range others {
		if out == nil {
			out = s
		} else {
			out = And(out, s)
		}
	}
	if out == nil {
		return Empty{}
	}
	return out
}

// andRanges is AND Case 1: a standard ordered merge of two disjoint-sorted
// range sequences.
func andRanges(a, b Ranges) Set {
	out := make(Ranges, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		r := a[i].Intersect(b[j])
		if !r.Empty() {
			out = append(out, r)
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	if len(out) == 0 {
		return Empty{}
	}
	return out
}

// andBitmaps is AND Case 2: a word-at-a-time AND. When the operand extents
// coincide (the common case: chunk-aligned descriptors) this is a single
// pass over the word arrays; otherwise the overlap window is intersected
// word-by-word with shifting handled via the 64-alignment invariant.
func andBitmaps(a, b *Bitmap) Set {
	if a.start == b.start && a.nbits == b.nbits {
		out := a.Clone()
		out.AndWith(b)
		return out
	}
	cov := a.Covering().Intersect(b.Covering())
	if cov.Empty() {
		return Empty{}
	}
	// Both starts are 64-aligned, so the overlap window begins at a word
	// boundary in each operand.
	start := cov.Start &^ 63
	out := NewBitmap(start, cov.End-start)
	ao := (start - a.start) >> 6
	bo := (start - b.start) >> 6
	for w := range out.words {
		var aw, bw uint64
		if ai := ao + int64(w); ai >= 0 && ai < int64(len(a.words)) {
			aw = a.words[ai]
		}
		if bi := bo + int64(w); bi >= 0 && bi < int64(len(b.words)) {
			bw = b.words[bi]
		}
		out.words[w] = aw & bw
	}
	out.clampTail()
	return out
}

// clampTail zeroes any bits at or beyond nbits in the final word, preserving
// the invariant that trailing bits are clear.
func (b *Bitmap) clampTail() {
	if b.nbits%64 == 0 || len(b.words) == 0 {
		return
	}
	b.words[len(b.words)-1] &= ^uint64(0) >> uint(64-b.nbits%64)
}

// andRangesBitmap is the range×bit-string case the paper highlights as
// especially cheap: the result is the subset of the bit-string covered by
// the ranges. Output is a bitmap.
func andRangesBitmap(rs Ranges, bm *Bitmap) Set {
	cov := rs.Covering().Intersect(bm.Covering())
	if cov.Empty() {
		return Empty{}
	}
	start := cov.Start &^ 63
	out := NewBitmap(start, cov.End-start)
	for _, r := range rs {
		rr := r.Intersect(cov)
		if rr.Empty() {
			continue
		}
		copyBits(out, bm, rr)
	}
	out.clampTail()
	return out
}

// copyBits ORs the bits of src within window into dst. Both bitmaps are
// 64-aligned; window need not be.
func copyBits(dst, src *Bitmap, window Range) {
	for p := window.Start; p < window.End; {
		si := p - src.start
		di := p - dst.start
		// Process up to the next word boundary of the more constrained index.
		w := src.words[si>>6]
		// Bits of w from si&63 upward correspond to positions p, p+1, ...
		avail := 64 - si&63
		if rem := window.End - p; rem < avail {
			avail = rem
		}
		chunk := (w >> uint(si&63)) & maskLow(avail)
		// Place chunk at bit offset di&63; may straddle two destination words.
		dst.words[di>>6] |= chunk << uint(di&63)
		if spill := avail - (64 - di&63); spill > 0 {
			dst.words[di>>6+1] |= chunk >> uint(64-di&63)
		}
		p += avail
	}
}

func maskLow(n int64) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

func andRangesList(rs Ranges, l List) Set {
	out := make(List, 0, min(len(l), int(rs.Count())))
	i := 0
	for _, p := range l {
		for i < len(rs) && rs[i].End <= p {
			i++
		}
		if i >= len(rs) {
			break
		}
		if rs[i].Contains(p) {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return Empty{}
	}
	return out
}

func andBitmapList(bm *Bitmap, l List) Set {
	out := make(List, 0, len(l))
	for _, p := range l {
		if bm.Contains(p) {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return Empty{}
	}
	return out
}

func andLists(a, b List) Set {
	out := make(List, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	if len(out) == 0 {
		return Empty{}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
