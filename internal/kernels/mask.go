package kernels

import (
	"math/bits"
	"slices"
)

// This file is the tuple domain's selection-mask vocabulary. A mask is the
// output of a pred.Kernel: bit i of mask[i/64] says whether row i of a value
// vector survives. Selection over k columns is then one definition — evaluate
// into a mask, AND, count, compact each column through the mask — instead of a
// row loop that tests and stores across the columns one tuple at a time. Every
// primitive takes the row count from the value slice it is handed and ignores
// mask bits at or above it, so a mask's last word may carry garbage there.

// lowBits returns a word with its k lowest bits set, k in [0, 64].
func lowBits(k int) uint64 { return uint64(1)<<uint(k) - 1 }

// GrowMask returns a mask for n rows — (n+63)/64 words, contents unspecified —
// reusing buf's storage when it is large enough: the per-chunk resize of a
// mask scratch that lives as long as a morsel.
func GrowMask(buf []uint64, n int) []uint64 {
	nw := (n + 63) / 64
	return slices.Grow(buf[:0], nw)[:nw]
}

// CountMask returns the number of set bits among the first n of mask.
func CountMask(mask []uint64, n int) int { return CountMaskRange(mask, 0, n) }

// CountMaskRange returns the number of set bits among bits [lo, hi) of mask:
// how many positions of a bit-string descriptor fall under one column segment
// or one run.
func CountMaskRange(mask []uint64, lo, hi int) int {
	if hi <= lo {
		return 0
	}
	lw, hw := lo>>6, (hi-1)>>6
	first, last := ^uint64(0)<<uint(lo&63), lowBits((hi-1)&63+1)
	if lw == hw {
		return bits.OnesCount64(mask[lw] & first & last)
	}
	c := bits.OnesCount64(mask[lw]&first) + bits.OnesCount64(mask[hw]&last)
	for _, w := range mask[lw+1 : hw] {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndMask ANDs src into dst word by word and returns the number of set bits
// left among the first n of dst: the conjunction's running survivor count,
// which is what a caller decides on (stop when it reaches zero, reserve that
// many output rows).
func AndMask(dst, src []uint64, n int) int {
	dst = dst[:(n+63)/64]
	for i, w := range src[:len(dst)] {
		dst[i] &= w
	}
	return CountMask(dst, n)
}

// CompactByMask is the gather's mask form: it copies the values of src whose
// mask bit is set to the front of dst, in order, and returns how many it
// wrote; dst must have room for them. Bit bitOff+i of mask answers for src[i],
// bitOff in [0, 64): a tuple-domain selection mask starts at bit 0, a position
// descriptor's words under a column segment start wherever the segment does
// (plain blocks hold 8188 values, so their segments are never word-aligned to
// a chunk's bit-string). The values under the rest of the first word are
// walked as a head, after which words and values line up. dst may be src
// itself (the write index never passes the read index): compaction in place,
// where a leading stretch of all-ones words moves nothing. A full word is one
// 64-value copy, an empty word is skipped, and a mixed word walks its set
// bits.
func CompactByMask(dst, src []int64, mask []uint64, bitOff int) int {
	n := len(src)
	inPlace := n > 0 && len(dst) > 0 && &dst[0] == &src[0]
	w, base := 0, 0
	if bitOff != 0 && n > 0 {
		base = min(n, 64-bitOff)
		for m := mask[0] >> uint(bitOff) & lowBits(base); m != 0; m &= m - 1 {
			dst[w] = src[bits.TrailingZeros64(m)]
			w++
		}
		mask = mask[1:]
	}
	for wi := 0; base < n; wi, base = wi+1, base+64 {
		m := mask[wi]
		if m == 0 {
			continue
		}
		if n-base < 64 {
			m &= lowBits(n - base)
		} else if m == ^uint64(0) {
			if !inPlace || w != base {
				copy(dst[w:w+64], src[base:base+64])
			}
			w += 64
			continue
		}
		s := src[base:]
		for ; m != 0; m &= m - 1 {
			dst[w] = s[bits.TrailingZeros64(m)]
			w++
		}
	}
	return w
}

// GatherList is the gather's list form: dst[i] = src[pos[i]-base] for every
// listed position, src holding the values of positions base, base+1, …. The
// positions index src directly, in whatever order they come; dst must be as
// long as pos, and may be pos itself (each value is stored after its position
// has been read).
func GatherList(dst, src, pos []int64, base int64) {
	dst = dst[:len(pos)]
	for i, p := range pos {
		dst[i] = src[p-base]
	}
}

// Fill is the gather's run form over run-length-encoded data: one value
// written over the whole of dst. (Over plain data a run is a copy.)
func Fill(dst []int64, v int64) {
	for i := range dst {
		dst[i] = v
	}
}

// ScatterMasked is the bit-vector gather: it writes v over out at the rank of
// every position whose bit is set in both words (one distinct value's
// bit-string) and desc (the position descriptor, same base), a position's rank
// being the number of descriptor bits below it — its slot in the gathered
// output. It returns the descriptor's bit count, the rank at which the next
// stretch of words continues. Every position belongs to exactly one value's
// bit-string, so one call per distinct value fills every slot once.
func ScatterMasked(out []int64, v int64, words, desc []uint64) int {
	rank := 0
	for j, d := range desc {
		if d == 0 {
			continue
		}
		if m := words[j] & d; m != 0 {
			slots := out[rank:]
			if d == ^uint64(0) {
				for ; m != 0; m &= m - 1 {
					slots[bits.TrailingZeros64(m)] = v
				}
			} else {
				for ; m != 0; m &= m - 1 {
					slots[bits.OnesCount64(d&lowBits(bits.TrailingZeros64(m)))] = v
				}
			}
		}
		rank += bits.OnesCount64(d)
	}
	return rank
}

// PositionsFromMask writes base+i for every set bit i below n to the front of
// dst, ascending, and returns how many it wrote: a mask turned into the
// position vector early-materialized tuples carry. A full word is one
// counting run.
func PositionsFromMask(dst []int64, base int64, mask []uint64, n int) int {
	w := 0
	for wi, off := 0, 0; off < n; wi, off = wi+1, off+64 {
		m := mask[wi]
		if m == 0 {
			continue
		}
		p := base + int64(off)
		if n-off < 64 {
			m &= lowBits(n - off)
		} else if m == ^uint64(0) {
			FillRun(dst[w:w+64], p)
			w += 64
			continue
		}
		for ; m != 0; m &= m - 1 {
			dst[w] = p + int64(bits.TrailingZeros64(m))
			w++
		}
	}
	return w
}

// FillRun writes the run of consecutive positions start, start+1, … over
// dst: a position range turned into a position vector.
func FillRun(dst []int64, start int64) {
	for i := range dst {
		dst[i] = start + int64(i)
	}
}

// SumColumn returns the wrapping sum of vals. Four independent accumulators
// keep the additions off one dependency chain; wrapping int64 addition is
// commutative and associative, so the result is the row-order sum bit for
// bit.
func SumColumn(vals []int64) int64 {
	var s0, s1, s2, s3 int64
	for len(vals) >= 4 {
		s0 += vals[0]
		s1 += vals[1]
		s2 += vals[2]
		s3 += vals[3]
		vals = vals[4:]
	}
	for _, v := range vals {
		s0 += v
	}
	return s0 + s1 + s2 + s3
}
