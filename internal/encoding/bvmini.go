package encoding

import (
	"fmt"
	"slices"
	"sort"

	"matstore/internal/kernels"
	"matstore/internal/positions"
)

// BVMini is a mini-column over bit-vector-encoded data: for each distinct
// value, a bitmap covering the window. Predicate application ORs the
// bit-strings of matching values (as the paper describes for range
// predicates over bit-vector data); value reconstruction must consult every
// bit-string, which is why position-filtered access (DS3) is expensive here
// and the paper's executor does not support it natively — Extract and
// ValueAt are provided but cost O(distinct values).
type BVMini struct {
	cov  positions.Range
	vals []int64
	bms  []*positions.Bitmap
}

// NewBVMini builds a bit-vector mini-column. vals must be ascending and
// bms[i] must cover cov for each i.
func NewBVMini(cov positions.Range, vals []int64, bms []*positions.Bitmap) *BVMini {
	if len(vals) != len(bms) {
		panic("encoding: bit-vector values/bitmaps length mismatch")
	}
	for i, bm := range bms {
		if bm.Covering() != cov {
			panic(fmt.Sprintf("encoding: bit-string %d covers %v, want %v", i, bm.Covering(), cov))
		}
		if i > 0 && vals[i] <= vals[i-1] {
			panic("encoding: bit-vector values not ascending")
		}
	}
	return &BVMini{cov: cov, vals: vals, bms: bms}
}

// BVMiniFromValues bit-vector-encodes vals — a convenience for tests.
// start must be 64-aligned.
func BVMiniFromValues(start int64, vals []int64) *BVMini {
	cov := positions.Range{Start: start, End: start + int64(len(vals))}
	distinct := map[int64]*positions.Bitmap{}
	var order []int64
	for i, v := range vals {
		bm, ok := distinct[v]
		if !ok {
			bm = positions.NewBitmap(start, cov.Len())
			distinct[v] = bm
			order = append(order, v)
		}
		bm.Set(start + int64(i))
	}
	// Insertion sort the small distinct-value list.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	bms := make([]*positions.Bitmap, len(order))
	for i, v := range order {
		bms[i] = distinct[v]
	}
	return NewBVMini(cov, order, bms)
}

// Kind returns BitVector.
func (m *BVMini) Kind() Kind { return BitVector }

// Covering returns the window's position range.
func (m *BVMini) Covering() positions.Range { return m.cov }

// DistinctValues returns the encoded distinct values, ascending.
func (m *BVMini) DistinctValues() []int64 { return m.vals }

// BitString returns the bitmap for distinct value index i.
func (m *BVMini) BitString(i int) *positions.Bitmap { return m.bms[i] }

// Filter ORs together the bit-strings of the values the conjunction accepts.
// The conjunction is applied once per distinct value, never per position:
// this is the "predicate has already been applied a-priori" property of
// bit-vector data. Its bounds locate the contiguous range of distinct values
// by binary search over the ascending values, so the per-value predicate work
// is O(log distinct) plus a skip of the few excepted values before the
// word-at-a-time ORs. A lone accepted value shares its bit-string uncopied.
func (m *BVMini) Filter(f Conjunction) positions.Set {
	lo, hi, except, ok := f.Compiled().Bounds()
	if !ok {
		return positions.Empty{}
	}
	i0 := sort.Search(len(m.vals), func(i int) bool { return m.vals[i] >= lo })
	i1 := sort.Search(len(m.vals), func(i int) bool { return m.vals[i] > hi })
	var acc *positions.Bitmap
	shared := true
	for i := i0; i < i1; i++ {
		if slices.Contains(except, m.vals[i]) {
			continue
		}
		if acc == nil {
			acc = m.bms[i]
			continue
		}
		if shared {
			acc, shared = acc.Clone(), false
		}
		acc.Or(m.bms[i])
	}
	if acc == nil {
		return positions.Empty{}
	}
	return acc
}

// FilterAt restricts Filter's result to ps: the paper's AND, the bit-strings
// of the accepted values against the candidate set.
func (m *BVMini) FilterAt(ps positions.Set, f Conjunction) positions.Set {
	return positions.And(m.Filter(f), ps)
}

// ValueAt scans the distinct values' bit-strings for the one holding pos.
func (m *BVMini) ValueAt(pos int64) int64 {
	for i, bm := range m.bms {
		if bm.Contains(pos) {
			return m.vals[i]
		}
	}
	panic(fmt.Sprintf("encoding: position %d set in no bit-string of %v", pos, m.cov))
}

// Extract appends the values at ps to dst without decompressing the window:
// the descriptor is taken as bit-string words and each distinct value's
// bit-string is ANDed with it word by word, a surviving bit storing the value
// at its rank among the descriptor's positions. The cost is one pass over the
// descriptor's words per distinct value — the O(distinct values) of
// position-filtered access to bit-vector data the paper notes — plus one store
// per position.
func (m *BVMini) Extract(dst []int64, ps positions.Set) []int64 {
	desc, base, n := positions.MaskWords(ps, m.cov)
	if n == 0 {
		return dst
	}
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	off := (base - m.cov.Start) >> 6
	for i, bm := range m.bms {
		kernels.ScatterMasked(dst[at:], m.vals[i], bm.Words()[off:], desc)
	}
	return dst
}

// Decompress appends the full window to dst, grown in place: each distinct
// value's bit-string is scattered word at a time (ScatterMasked against an
// all-ones descriptor writes the value at every set bit's own index). Every
// position is set in exactly one bit-string, so every slot is written once.
func (m *BVMini) Decompress(dst []int64) []int64 {
	at, n := len(dst), int(m.cov.Len())
	dst = slices.Grow(dst, n)[:at+n]
	out := dst[at:]
	for i, bm := range m.bms {
		words := bm.Words()
		for j := 0; j < len(words); j += len(allOnes) {
			k := min(len(allOnes), len(words)-j)
			kernels.ScatterMasked(out[64*j:], m.vals[i], words[j:j+k], allOnes[:k])
		}
	}
	return dst
}

// allOnes is a descriptor that selects every position of 4,096.
var allOnes = func() (w [64]uint64) {
	for i := range w {
		w[i] = ^uint64(0)
	}
	return w
}()

// MemBytes estimates the window's heap footprint: one full-cover bitmap per
// distinct value plus the value list.
func (m *BVMini) MemBytes() int64 {
	words := (m.cov.Len() + 63) / 64
	return int64(len(m.vals))*(8+24+8*words) + 8*int64(len(m.vals))
}

// statsRange aggregates via one popcount per distinct value: count and sum
// come from popcounts, min/max from the smallest/largest distinct value
// with a non-zero popcount (distinct values are stored ascending).
func (m *BVMini) statsRange(r positions.Range) RunStats {
	r = r.Intersect(m.cov)
	if r.Empty() {
		return RunStats{}
	}
	var st RunStats
	for i, bm := range m.bms {
		n := popcountRange(bm, r)
		if n == 0 {
			continue
		}
		v := m.vals[i]
		st.merge(RunStats{Sum: v * n, Count: n, Min: v, Max: v})
	}
	return st
}

// popcountRange counts set bits of bm within r.
func popcountRange(bm *positions.Bitmap, r positions.Range) int64 {
	r = r.Intersect(bm.Covering())
	return int64(kernels.CountMaskRange(bm.Words(), int(r.Start-bm.Start()), int(r.End-bm.Start())))
}
