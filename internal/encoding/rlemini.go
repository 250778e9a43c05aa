package encoding

import (
	"fmt"
	"slices"
	"sort"

	"matstore/internal/kernels"
	"matstore/internal/positions"
	"matstore/internal/pred"
)

// RLEMini is a mini-column over run-length-encoded data: a sorted slice of
// triples exactly tiling the covering range. It supports the paper's
// "operate an entire run length in one operator loop" style: filtering is
// O(runs), extraction is a merge of runs with the position descriptor, and
// summation multiplies value by overlap length.
type RLEMini struct {
	cov     positions.Range
	triples []Triple
}

// NewRLEMini builds an RLE mini-column from triples clipped to cov. Triples
// must be sorted, non-overlapping, and tile cov exactly.
func NewRLEMini(cov positions.Range, triples []Triple) *RLEMini {
	for i, t := range triples {
		if t.Len <= 0 {
			panic(fmt.Sprintf("encoding: empty RLE run %+v", t))
		}
		if i > 0 && t.Start != triples[i-1].End() {
			panic(fmt.Sprintf("encoding: RLE runs not contiguous at %d", t.Start))
		}
	}
	if len(triples) > 0 {
		if triples[0].Start != cov.Start || triples[len(triples)-1].End() != cov.End {
			panic(fmt.Sprintf("encoding: RLE runs %v..%v do not tile cover %v",
				triples[0].Cover(), triples[len(triples)-1].Cover(), cov))
		}
	} else if !cov.Empty() {
		panic("encoding: non-empty cover with no RLE runs")
	}
	return &RLEMini{cov: cov, triples: triples}
}

// RLEMiniFromValues RLE-encodes vals (positions start..start+len) — a
// convenience for tests.
func RLEMiniFromValues(start int64, vals []int64) *RLEMini {
	var ts []Triple
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		ts = append(ts, Triple{Value: vals[i], Start: start + int64(i), Len: int64(j - i)})
		i = j
	}
	return NewRLEMini(positions.Range{Start: start, End: start + int64(len(vals))}, ts)
}

// Kind returns RLE.
func (m *RLEMini) Kind() Kind { return RLE }

// Covering returns the window's position range.
func (m *RLEMini) Covering() positions.Range { return m.cov }

// Triples exposes the runs (read-only) for operators that work directly on
// compressed data, e.g. the RLE-aware aggregator.
func (m *RLEMini) Triples() []Triple { return m.triples }

// AvgRunLen returns the mean run length (the RL model parameter).
func (m *RLEMini) AvgRunLen() float64 {
	if len(m.triples) == 0 {
		return 1
	}
	return float64(m.cov.Len()) / float64(len(m.triples))
}

func (m *RLEMini) triple(pos int64) int {
	i := sort.Search(len(m.triples), func(i int) bool { return m.triples[i].End() > pos })
	if i == len(m.triples) || pos < m.triples[i].Start {
		panic(fmt.Sprintf("encoding: position %d outside RLE mini-column %v", pos, m.cov))
	}
	return i
}

// ValueAt returns the value at pos.
func (m *RLEMini) ValueAt(pos int64) int64 { return m.triples[m.triple(pos)].Value }

// Filter applies p once per run, emitting whole runs (this is why RLE
// predicate outputs are naturally position ranges). Interval-shaped
// predicates compile to one two-comparison interval test per run —
// compressed data is filtered without expansion and without per-run operator
// dispatch; non-interval predicates fall back to a compiled scalar matcher.
func (m *RLEMini) Filter(p pred.Predicate) positions.Set {
	b := positions.NewBuilder(m.cov)
	if lo, hi, ok := p.Interval(); ok {
		for _, t := range m.triples {
			if t.Value >= lo && t.Value <= hi {
				b.AddRange(t.Cover())
			}
		}
		return b.Build()
	}
	match := pred.CompileMatcher(p)
	for _, t := range m.triples {
		if match(t.Value) {
			b.AddRange(t.Cover())
		}
	}
	return b.Build()
}

// FilterAt applies p to the runs overlapping ps, with the same run-at-a-time
// interval kernel as Filter.
func (m *RLEMini) FilterAt(ps positions.Set, p pred.Predicate) positions.Set {
	lo, hi, intervalOK := p.Interval()
	var match pred.Matcher
	if !intervalOK {
		match = pred.CompileMatcher(p)
	}
	b := positions.NewBuilder(m.cov)
	it := ps.Runs()
	ti := 0
	for {
		r, ok := it.Next()
		if !ok {
			return b.Build()
		}
		r = r.Intersect(m.cov)
		if r.Empty() {
			continue
		}
		// Runs arrive in ascending order, so advance ti monotonically.
		for ti < len(m.triples) && m.triples[ti].End() <= r.Start {
			ti++
		}
		for tj := ti; tj < len(m.triples) && m.triples[tj].Start < r.End; tj++ {
			v := m.triples[tj].Value
			if intervalOK {
				if v < lo || v > hi {
					continue
				}
			} else if !match(v) {
				continue
			}
			if o := m.triples[tj].Cover().Intersect(r); !o.Empty() {
				b.AddRange(o)
			}
		}
	}
}

// filterScalar is the retained per-run reference implementation of Filter:
// one Predicate.Match dispatch per run. The differential kernel suite checks
// the interval kernel against it; it is not used by query execution.
func (m *RLEMini) filterScalar(p pred.Predicate) positions.Set {
	b := positions.NewBuilder(m.cov)
	for _, t := range m.triples {
		if p.Match(t.Value) {
			b.AddRange(t.Cover())
		}
	}
	return b.Build()
}

// filterAtScalar is the retained reference implementation of FilterAt (see
// filterScalar).
func (m *RLEMini) filterAtScalar(ps positions.Set, p pred.Predicate) positions.Set {
	b := positions.NewBuilder(m.cov)
	it := ps.Runs()
	ti := 0
	for {
		r, ok := it.Next()
		if !ok {
			return b.Build()
		}
		r = r.Intersect(m.cov)
		if r.Empty() {
			continue
		}
		for ti < len(m.triples) && m.triples[ti].End() <= r.Start {
			ti++
		}
		for tj := ti; tj < len(m.triples) && m.triples[tj].Start < r.End; tj++ {
			if p.Match(m.triples[tj].Value) {
				if o := m.triples[tj].Cover().Intersect(r); !o.Empty() {
					b.AddRange(o)
				}
			}
		}
	}
}

// Extract appends the values at ps to dst; each run contributes its value as
// many times as ps holds positions under it (Gather, over the window as one
// segment of runs).
func (m *RLEMini) Extract(dst []int64, ps positions.Set) []int64 {
	dst, _ = Gather(dst, m, ps) // the window is in memory: Pin cannot fail
	return dst
}

// NumSegments, SegmentCover, Pin and Unpin present the window to Gather.
func (m *RLEMini) NumSegments() int { return 1 }

func (m *RLEMini) SegmentCover(int) positions.Range { return m.cov }

func (m *RLEMini) Pin(int) (Segment, error) { return Segment{Cover: m.cov, Triples: m.triples}, nil }

func (m *RLEMini) Unpin(int) {}

// Decompress expands every run into dst, one fill per run.
func (m *RLEMini) Decompress(dst []int64) []int64 {
	at := len(dst)
	dst = slices.Grow(dst, int(m.cov.Len()))[:at+int(m.cov.Len())]
	out := dst[at:]
	for _, t := range m.triples {
		kernels.Fill(out[:t.Len], t.Value)
		out = out[t.Len:]
	}
	return dst
}

// MemBytes estimates the window's heap footprint: one triple (value, start,
// length) per run.
func (m *RLEMini) MemBytes() int64 { return 24 * int64(len(m.triples)) }

// statsRange aggregates whole runs: each overlapping triple contributes
// value×overlap to the sum and overlap to the count in O(1).
func (m *RLEMini) statsRange(r positions.Range) RunStats {
	r = r.Intersect(m.cov)
	if r.Empty() {
		return RunStats{}
	}
	var st RunStats
	for ti := m.triple(r.Start); ti < len(m.triples) && m.triples[ti].Start < r.End; ti++ {
		o := m.triples[ti].Cover().Intersect(r)
		if o.Empty() {
			continue
		}
		v := m.triples[ti].Value
		st.merge(RunStats{Sum: v * o.Len(), Count: o.Len(), Min: v, Max: v})
	}
	return st
}

func (m *RLEMini) sumRange(r positions.Range) int64 {
	r = r.Intersect(m.cov)
	if r.Empty() {
		return 0
	}
	var sum int64
	for ti := m.triple(r.Start); ti < len(m.triples) && m.triples[ti].Start < r.End; ti++ {
		o := m.triples[ti].Cover().Intersect(r)
		sum += m.triples[ti].Value * o.Len()
	}
	return sum
}
