package encoding

import (
	"fmt"
	"sort"

	"matstore/internal/kernels"
	"matstore/internal/positions"
	"matstore/internal/pred"
)

// PlainMini is a mini-column over uncompressed data. Because chunk
// boundaries need not align with block boundaries, the window is a sequence
// of contiguous segments, each a zero-copy slice into a decoded block.
type PlainMini struct {
	cov  positions.Range
	segs []plainSeg
}

type plainSeg struct {
	start int64
	vals  []int64
}

func (s plainSeg) end() int64 { return s.start + int64(len(s.vals)) }

// NewPlainMini builds a plain mini-column covering cov. Segments must be
// contiguous, in order, and exactly tile cov.
func NewPlainMini(cov positions.Range) *PlainMini {
	return &PlainMini{cov: cov}
}

// AddSegment appends a segment of values starting at position start.
// Segments must be added in ascending, gap-free order.
func (m *PlainMini) AddSegment(start int64, vals []int64) {
	if len(vals) == 0 {
		return
	}
	if n := len(m.segs); n > 0 && m.segs[n-1].end() != start {
		panic(fmt.Sprintf("encoding: plain segment gap: prev ends %d, next starts %d", m.segs[n-1].end(), start))
	}
	m.segs = append(m.segs, plainSeg{start: start, vals: vals})
}

// PlainMiniFromValues is a convenience constructor for tests and in-memory
// tables: the window holds vals at positions [start, start+len(vals)).
func PlainMiniFromValues(start int64, vals []int64) *PlainMini {
	m := NewPlainMini(positions.Range{Start: start, End: start + int64(len(vals))})
	m.AddSegment(start, vals)
	return m
}

// Kind returns Plain.
func (m *PlainMini) Kind() Kind { return Plain }

// Covering returns the window's position range.
func (m *PlainMini) Covering() positions.Range { return m.cov }

// seg returns the index of the segment containing pos.
func (m *PlainMini) seg(pos int64) int {
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].end() > pos })
	if i == len(m.segs) || pos < m.segs[i].start {
		panic(fmt.Sprintf("encoding: position %d outside plain mini-column %v", pos, m.cov))
	}
	return i
}

// ValueAt returns the value at pos.
func (m *PlainMini) ValueAt(pos int64) int64 {
	// Fast path: chunks no larger than a block have a single segment.
	if len(m.segs) == 1 {
		return m.segs[0].vals[pos-m.segs[0].start]
	}
	s := m.segs[m.seg(pos)]
	return s.vals[pos-s.start]
}

// Filter applies the conjunction to every value in the window. As in
// C-Store, a scan of uncompressed data emits its positions as a bit-string:
// without encoded runs to exploit, the data source does not try to discover
// value runs on the fly (predicates over sorted or RLE columns are the ones
// that produce position ranges). The compiled kernel emits 64 results at a
// time directly into the bitmap — no per-value operator dispatch, no
// intermediate run list.
func (m *PlainMini) Filter(f Conjunction) positions.Set {
	k := f.Compiled().Kernel
	bm := filterBitmap(m.cov)
	for _, s := range m.segs {
		kernels.FilterIntoBitmap(bm, s.start, s.vals, k)
	}
	return nonEmpty(bm)
}

// FilterAt applies the conjunction only at the positions in ps — the
// pipelined-LM narrowing step. Like Gather it walks the window's segments and
// takes ps's piece under each in ps's own representation (positions.Within):
// a bit-string is read word by word, every non-zero word getting one kernel
// call over the values under it, ANDed into the output bit-string; listed
// positions are tested one by one and stay a list; ranges run the kernel over
// each range into the output bit-string.
func (m *PlainMini) FilterAt(ps positions.Set, f Conjunction) positions.Set {
	c := f.Compiled()
	span := ps.Covering().Intersect(m.cov)
	if span.Empty() {
		return positions.Empty{}
	}
	var bm *positions.Bitmap
	var list positions.List
	if l, ok := ps.(positions.List); ok {
		list = make(positions.List, 0, len(l))
	} else {
		bm = filterBitmap(m.cov)
	}
	for i := m.seg(span.Start); i < len(m.segs) && m.segs[i].start < span.End; i++ {
		s := m.segs[i]
		switch pc := positions.Within(ps, m.SegmentCover(i)); {
		case pc.Words != nil:
			filterWords(bm, s.vals[pc.Range.Start-s.start:pc.Range.End-s.start], pc, c.Kernel)
		case pc.List != nil:
			for _, p := range pc.List {
				if c.Accepts(s.vals[p-s.start]) {
					list = append(list, p)
				}
			}
		default:
			for _, r := range pc.Runs {
				r = r.Intersect(pc.Range)
				kernels.FilterIntoBitmap(bm, r.Start, s.vals[r.Start-s.start:r.End-s.start], c.Kernel)
			}
		}
	}
	if bm != nil {
		return nonEmpty(bm)
	}
	if len(list) == 0 {
		return positions.Empty{}
	}
	return list
}

// filterWords is FilterAt's bit-string arm over one plain segment: vals are
// the values under pc, bit pc.BitOff+i of pc.Words answering for vals[i]. A
// non-zero candidate word gets one kernel call over the values under it; the
// kernel writes straight into the output word, whose earlier bits (the
// previous segment's, when the two share the word) are held meanwhile, and the
// result is ANDed with the candidate word.
func filterWords(out *positions.Bitmap, vals []int64, pc positions.Piece, k pred.Kernel) {
	words := out.Words()[(pc.Range.Start-out.Start())>>6:] // both bit-strings are 64-aligned
	for j, cw := range pc.Words {
		if cw == 0 {
			continue
		}
		held := words[j]
		k(vals[max(64*j-pc.BitOff, 0):min(64*j+64-pc.BitOff, len(vals))], words[j:j+1])
		r := words[j]
		if j == 0 {
			r <<= uint(pc.BitOff)
		}
		words[j] = held | r&cw
	}
}

// filterBitmap allocates a filter's output bit-string over a window,
// 64-aligned like Builder's forced-bitmap output.
func filterBitmap(cov positions.Range) *positions.Bitmap {
	start := cov.Start &^ 63
	return positions.NewBitmap(start, cov.End-start)
}

// nonEmpty returns bm, or Empty when no bit is set.
func nonEmpty(bm *positions.Bitmap) positions.Set {
	if bm.Count() == 0 {
		return positions.Empty{}
	}
	return bm
}

// Extract appends the values at ps to dst: the segment walk of Gather over
// the window's zero-copy slices.
func (m *PlainMini) Extract(dst []int64, ps positions.Set) []int64 {
	dst, _ = Gather(dst, m, ps) // the window is in memory: Pin cannot fail
	return dst
}

// NumSegments, SegmentCover, Pin and Unpin present the window to Gather.
func (m *PlainMini) NumSegments() int { return len(m.segs) }

func (m *PlainMini) SegmentCover(i int) positions.Range {
	return positions.Range{Start: m.segs[i].start, End: m.segs[i].end()}
}

func (m *PlainMini) Pin(i int) (Segment, error) {
	return Segment{Cover: m.SegmentCover(i), Vals: m.segs[i].vals}, nil
}

func (m *PlainMini) Unpin(int) {}

// Decompress appends the full window to dst.
func (m *PlainMini) Decompress(dst []int64) []int64 {
	for _, s := range m.segs {
		dst = append(dst, s.vals...)
	}
	return dst
}

// MemBytes estimates the window's heap footprint: one word per value plus
// per-segment bookkeeping.
func (m *PlainMini) MemBytes() int64 {
	var b int64
	for _, s := range m.segs {
		b += 24 + 8*int64(len(s.vals))
	}
	return b
}

func (m *PlainMini) statsRange(r positions.Range) RunStats {
	r = r.Intersect(m.cov)
	if r.Empty() {
		return RunStats{}
	}
	var st RunStats
	si := m.seg(r.Start)
	for pos := r.Start; pos < r.End; {
		s := m.segs[si]
		end := r.End
		if s.end() < end {
			end = s.end()
		}
		for _, v := range s.vals[pos-s.start : end-s.start] {
			if st.Count == 0 {
				st.Min, st.Max = v, v
			} else {
				if v < st.Min {
					st.Min = v
				}
				if v > st.Max {
					st.Max = v
				}
			}
			st.Sum += v
			st.Count++
		}
		pos = end
		si++
	}
	return st
}
