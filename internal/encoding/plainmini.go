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

// Filter applies p to every value in the window. As in C-Store, a scan of
// uncompressed data emits its positions as a bit-string: without encoded
// runs to exploit, the data source does not try to discover value runs on
// the fly (predicates over sorted or RLE columns are the ones that produce
// position ranges). The predicate is compiled once and the comparison loop
// emits 64 results at a time directly into the bitmap — no per-value
// operator dispatch, no intermediate run list.
func (m *PlainMini) Filter(p pred.Predicate) positions.Set {
	bm := m.newFilterBitmap()
	k := pred.Compile(p)
	for _, s := range m.segs {
		kernels.FilterIntoBitmap(bm, s.start, s.vals, k)
	}
	if bm.Count() == 0 {
		return positions.Empty{}
	}
	return bm
}

// newFilterBitmap allocates the window's filter-output bitmap, 64-aligned
// like Builder's forced-bitmap output.
func (m *PlainMini) newFilterBitmap() *positions.Bitmap {
	start := m.cov.Start &^ 63
	return positions.NewBitmap(start, m.cov.End-start)
}

// filterAtDenseCutoff is the static position count above which FilterAt
// switches from the run-builder output to the compiled word-at-a-time kernel
// emitting a bitmap: below it the candidate set is sparse enough that a
// compact list/range output is worth keeping for downstream intersections.
// It is the fallback decision rule; the executor drives the per-chunk choice
// through AdaptiveFilterAt, which predicts from the previous chunk's
// observed candidate density instead.
const filterAtDenseCutoff = 128

// FilterAt applies p only at the positions in ps, choosing the execution
// path by the static cutoff on the candidate count. Chunk-at-a-time callers
// should prefer AdaptiveFilterAt, which feeds FilterAtChoice from observed
// density.
func (m *PlainMini) FilterAt(ps positions.Set, p pred.Predicate) positions.Set {
	return m.FilterAtChoice(ps, p, ps.Count() > filterAtDenseCutoff)
}

// FilterAtChoice is FilterAt with the dense/sparse decision made by the
// caller. Dense candidate sets run through the compiled kernel run-by-run
// straight into a bitmap; sparse sets keep the adaptive run-builder
// representation, evaluated with a compiled scalar matcher. Both paths
// return exactly the same position set — only the work profile and output
// representation differ.
func (m *PlainMini) FilterAtChoice(ps positions.Set, p pred.Predicate, dense bool) positions.Set {
	if !dense {
		return m.filterAtSparse(ps, pred.CompileMatcher(p))
	}
	bm := m.newFilterBitmap()
	k := pred.Compile(p)
	it := ps.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		r = r.Intersect(m.cov)
		if r.Empty() {
			continue
		}
		si := m.seg(r.Start)
		for pos := r.Start; pos < r.End; {
			s := m.segs[si]
			end := r.End
			if s.end() < end {
				end = s.end()
			}
			kernels.FilterIntoBitmap(bm, pos, s.vals[pos-s.start:end-s.start], k)
			pos = end
			si++
		}
	}
	if bm.Count() == 0 {
		return positions.Empty{}
	}
	return bm
}

// filterAtSparse is the sparse-candidate FilterAt path: the old run-builder
// output shape, with the predicate compiled to a scalar matcher.
func (m *PlainMini) filterAtSparse(ps positions.Set, match pred.Matcher) positions.Set {
	b := positions.NewBuilder(m.cov)
	it := ps.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			return b.Build()
		}
		r = r.Intersect(m.cov)
		if r.Empty() {
			continue
		}
		si := m.seg(r.Start)
		for pos := r.Start; pos < r.End; {
			s := m.segs[si]
			end := r.End
			if s.end() < end {
				end = s.end()
			}
			vals := s.vals[pos-s.start : end-s.start]
			runStart := int64(-1)
			for i, v := range vals {
				if match(v) {
					if runStart < 0 {
						runStart = pos + int64(i)
					}
				} else if runStart >= 0 {
					b.AddRange(positions.Range{Start: runStart, End: pos + int64(i)})
					runStart = -1
				}
			}
			if runStart >= 0 {
				b.AddRange(positions.Range{Start: runStart, End: end})
			}
			pos = end
			si++
		}
	}
}

// filterScalar is the retained per-value reference implementation of Filter:
// one Predicate.Match dispatch per value, runs accumulated through the
// Builder and replayed into a forced bitmap. The differential kernel suite
// checks the compiled path against it; it is not used by query execution.
func (m *PlainMini) filterScalar(p pred.Predicate) positions.Set {
	b := positions.NewBuilder(m.cov)
	b.ForceBitmap()
	for _, s := range m.segs {
		base := s.start
		runStart := int64(-1)
		for i, v := range s.vals {
			if p.Match(v) {
				if runStart < 0 {
					runStart = base + int64(i)
				}
			} else if runStart >= 0 {
				b.AddRange(positions.Range{Start: runStart, End: base + int64(i)})
				runStart = -1
			}
		}
		if runStart >= 0 {
			b.AddRange(positions.Range{Start: runStart, End: s.end()})
		}
	}
	return b.Build()
}

// filterAtScalar is the retained per-value reference implementation of
// FilterAt (see filterScalar).
func (m *PlainMini) filterAtScalar(ps positions.Set, p pred.Predicate) positions.Set {
	b := positions.NewBuilder(m.cov)
	it := ps.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			return b.Build()
		}
		r = r.Intersect(m.cov)
		if r.Empty() {
			continue
		}
		si := m.seg(r.Start)
		for pos := r.Start; pos < r.End; {
			s := m.segs[si]
			end := r.End
			if s.end() < end {
				end = s.end()
			}
			vals := s.vals[pos-s.start : end-s.start]
			runStart := int64(-1)
			for i, v := range vals {
				if p.Match(v) {
					if runStart < 0 {
						runStart = pos + int64(i)
					}
				} else if runStart >= 0 {
					b.AddRange(positions.Range{Start: runStart, End: pos + int64(i)})
					runStart = -1
				}
			}
			if runStart >= 0 {
				b.AddRange(positions.Range{Start: runStart, End: end})
			}
			pos = end
			si++
		}
	}
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

func (m *PlainMini) sumRange(r positions.Range) int64 {
	r = r.Intersect(m.cov)
	if r.Empty() {
		return 0
	}
	var sum int64
	si := m.seg(r.Start)
	for pos := r.Start; pos < r.End; {
		s := m.segs[si]
		end := r.End
		if s.end() < end {
			end = s.end()
		}
		for _, v := range s.vals[pos-s.start : end-s.start] {
			sum += v
		}
		pos = end
		si++
	}
	return sum
}
