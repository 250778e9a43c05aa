// Package encoding implements the column encodings of the C-Store storage
// layer reproduced here (Section 1.1 of the paper): uncompressed (plain)
// values, run-length encoding as (value, start, length) triples, and
// bit-vector encoding with one bit-string per distinct value. It also
// provides the MiniColumn abstraction — the in-memory, still-compressed
// window over a column that multi-columns carry through query plans
// (Section 3.6).
package encoding

import (
	"fmt"

	"matstore/internal/positions"
	"matstore/internal/pred"
)

// Kind identifies a column encoding.
type Kind uint8

const (
	// Plain is uncompressed 8-byte values.
	Plain Kind = iota
	// RLE is run-length encoding: (value, start position, run length) triples.
	RLE
	// BitVector stores one bit-string per distinct value; bit i of value v's
	// string is set iff the column holds v at position i.
	BitVector
)

func (k Kind) String() string {
	switch k {
	case Plain:
		return "plain"
	case RLE:
		return "rle"
	case BitVector:
		return "bitvector"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(k))
	}
}

// ParseKind converts a string (as stored in catalog metadata) to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "plain", "uncompressed":
		return Plain, nil
	case "rle":
		return RLE, nil
	case "bitvector", "bv", "bit-vector":
		return BitVector, nil
	default:
		return 0, fmt.Errorf("encoding: unknown kind %q", s)
	}
}

// Triple is one RLE run: Len copies of Value starting at position Start.
type Triple struct {
	Value int64
	Start int64
	Len   int64
}

// End returns the position one past the run.
func (t Triple) End() int64 { return t.Start + t.Len }

// Cover returns the position range of the run.
func (t Triple) Cover() positions.Range { return positions.Range{Start: t.Start, End: t.End()} }

// MiniColumn is a read-only window over one column restricted to a covering
// position range, kept in the column's native compressed form. Mini-columns
// are the unit that flows between operators inside a multi-column; every
// data-source case of Section 3.2 reduces to one of these methods.
type MiniColumn interface {
	// Kind reports the underlying encoding.
	Kind() Kind
	// Covering returns the position range this window spans.
	Covering() positions.Range
	// Filter applies p to every value in the window and returns the set of
	// positions whose values match (data source case 1 per chunk).
	Filter(p pred.Predicate) positions.Set
	// FilterAt applies p only at the positions in ps, returning the subset
	// that match (the pipelined-LM narrowing step).
	FilterAt(ps positions.Set, p pred.Predicate) positions.Set
	// Extract appends to dst the values at the positions in ps, in position
	// order (data source case 3 per chunk).
	Extract(dst []int64, ps positions.Set) []int64
	// ValueAt returns the value at pos, which must lie inside Covering()
	// (data source case 4's jump, and the join's inner-table fetch).
	ValueAt(pos int64) int64
	// Decompress appends every value in the window to dst in position order.
	Decompress(dst []int64) []int64
	// MemBytes estimates the window's resident heap footprint — the
	// accounting unit of caches that retain mini-columns (the join build
	// cache's multi-column payload entries).
	MemBytes() int64
}

// SumRange returns the sum of the values at positions [r.Start, r.End) of mc,
// exploiting the encoding: O(runs) for RLE, O(distinct) popcounts for
// bit-vector. It is the primitive behind aggregation directly on compressed
// data (Section 4.2).
func SumRange(mc MiniColumn, r positions.Range) int64 {
	switch m := mc.(type) {
	case *RLEMini:
		return m.sumRange(r)
	case *BVMini:
		return m.sumRange(r)
	case *PlainMini:
		return m.sumRange(r)
	default:
		var sum int64
		for p := r.Start; p < r.End; p++ {
			sum += mc.ValueAt(p)
		}
		return sum
	}
}

// RunStats are the aggregate statistics of one run of values, the unit of
// work for aggregation directly on compressed data: a whole run contributes
// in O(1) (RLE) or O(distinct) (bit-vector) instead of O(values).
type RunStats struct {
	Sum   int64
	Count int64
	Min   int64
	Max   int64
}

// merge folds another run's statistics into s.
func (s *RunStats) merge(o RunStats) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = o
		return
	}
	s.Sum += o.Sum
	s.Count += o.Count
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// StatsRange computes RunStats over [r.Start, r.End) of mc, exploiting the
// encoding like SumRange.
func StatsRange(mc MiniColumn, r positions.Range) RunStats {
	switch m := mc.(type) {
	case *RLEMini:
		return m.statsRange(r)
	case *BVMini:
		return m.statsRange(r)
	case *PlainMini:
		return m.statsRange(r)
	default:
		var st RunStats
		r = r.Intersect(mc.Covering())
		for p := r.Start; p < r.End; p++ {
			v := mc.ValueAt(p)
			st.merge(RunStats{Sum: v, Count: 1, Min: v, Max: v})
		}
		return st
	}
}

// StatsSet computes RunStats over an arbitrary position set.
func StatsSet(mc MiniColumn, ps positions.Set) RunStats {
	var st RunStats
	it := ps.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			return st
		}
		st.merge(StatsRange(mc, r))
	}
}
