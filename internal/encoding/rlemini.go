package encoding

import (
	"fmt"
	"slices"
	"sort"

	"matstore/internal/kernels"
	"matstore/internal/positions"
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

// Filter applies the conjunction once per run, emitting whole runs (this is
// why RLE predicate outputs are naturally position ranges). Each run is one
// unsigned compare against the conjunction's interval plus a scan of its few
// exceptions — compressed data is filtered without expansion and without
// per-run operator dispatch.
func (m *RLEMini) Filter(f Conjunction) positions.Set {
	c := f.Compiled()
	b := positions.NewBuilder(m.cov)
	for _, t := range m.triples {
		if c.Accepts(t.Value) {
			b.AddRange(t.Cover())
		}
	}
	return b.Build()
}

// FilterAt tests each run the candidate set overlaps once, as Filter does,
// and keeps the candidate's positions under every matching run in the
// candidate's own representation (positions.Within over the window): a
// bit-string's words under the run are copied into the output bit-string,
// listed positions below the run's end stay a list, and ranges are clipped to
// the run.
func (m *RLEMini) FilterAt(ps positions.Set, f Conjunction) positions.Set {
	c := f.Compiled()
	pc := positions.Within(ps, m.cov)
	ts := m.triples
	tj := sort.Search(len(ts), func(j int) bool { return ts[j].End() > pc.Range.Start })
	switch {
	case pc.Words != nil:
		out := filterBitmap(m.cov)
		bit0 := pc.Range.Start - int64(pc.BitOff) // the position bit 0 of Words stands for
		words := out.Words()[(bit0-out.Start())>>6:]
		for pos := pc.Range.Start; pos < pc.Range.End; tj++ {
			end := min(ts[tj].End(), pc.Range.End)
			if c.Accepts(ts[tj].Value) {
				orBits(words, pc.Words, int(pos-bit0), int(end-bit0))
			}
			pos = end
		}
		return nonEmpty(out)
	case pc.List != nil:
		out := make(positions.List, 0, len(pc.List))
		for l := pc.List; len(l) > 0; tj++ {
			k := 0
			for k < len(l) && l[k] < ts[tj].End() {
				k++
			}
			if k > 0 && c.Accepts(ts[tj].Value) {
				out = append(out, l[:k]...)
			}
			l = l[k:]
		}
		if len(out) == 0 {
			return positions.Empty{}
		}
		return out
	}
	var out positions.Ranges
	for _, r := range pc.Runs {
		r = r.Intersect(pc.Range)
		for ts[tj].End() <= r.Start {
			tj++
		}
		for pos := r.Start; ; tj++ {
			end := min(ts[tj].End(), r.End)
			if c.Accepts(ts[tj].Value) {
				if n := len(out); n > 0 && out[n-1].End == pos {
					out[n-1].End = end // runs that both match stay one range
				} else {
					out = append(out, positions.Range{Start: pos, End: end})
				}
			}
			if pos = end; pos == r.End {
				break // the next range may start inside this run
			}
		}
	}
	if len(out) == 0 {
		return positions.Empty{}
	}
	return out
}

// orBits ORs bits [lo, hi) of src into dst, word for word.
func orBits(dst, src []uint64, lo, hi int) {
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		m := ^uint64(0)
		if w == lo>>6 {
			m <<= uint(lo & 63)
		}
		if w == (hi-1)>>6 {
			m &= ^uint64(0) >> uint(63-(hi-1)&63)
		}
		dst[w] |= src[w] & m
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
