// Package kernels implements the specialized scan and gather inner loops the
// data sources run on: compiled-predicate filtering that emits 64 results at
// a time as bitmap words (no per-value operator dispatch, no intermediate
// run list), and the gather that consumes such words 64 at a time (mask.go:
// mask, list and run forms over plain and run-length-encoded data, a masked
// bit-scatter over bit-vector data). It sits below encoding and storage —
// those layers supply the data in its native format and this layer supplies
// the tight loops — mirroring the format-direct operator style of MorphStore
// and C-Store.
package kernels

import (
	"matstore/internal/positions"
	"matstore/internal/pred"
)

// filterTileVals is the number of values a compiled kernel evaluates per
// tile: the bitmap words it overwrites are held in a 64-word array on the
// stack meanwhile and merged back in one pass.
const filterTileVals = 64 * 64

// FilterIntoBitmap evaluates the compiled kernel k over vals — whose first
// value sits at position base — and ORs the resulting comparison bits into
// bm. The bitmap must cover [base, base+len(vals)); base need not be
// 64-aligned (plain blocks hold 8188 values, so mid-chunk segments start at
// arbitrary bit offsets) — misaligned emissions are shifted word-at-a-time.
//
// The kernel writes each tile straight into the bitmap's words the tile
// starts in; what they held is kept in held, which is never handed to the
// kernel. A tile scratch passed to k — a func value the compiler cannot see
// through — would be moved to the heap on every call.
func FilterIntoBitmap(bm *positions.Bitmap, base int64, vals []int64, k pred.Kernel) {
	words := bm.Words()
	off := base - bm.Start()
	var held [filterTileVals / 64]uint64
	for len(vals) > 0 {
		n := min(len(vals), filterTileVals)
		nw := (n + 63) / 64
		wi, sh := off>>6, uint(off&63)
		dst := words[wi : wi+int64(nw)]
		copy(held[:nw], dst)
		k(vals[:n], dst)
		// Result word i answers for the 64 positions from bit sh of word wi+i:
		// its low 64-sh bits stay in that word and the rest carry into the next.
		// Kernels zero the bits past n, so a carry out of the last word holds
		// positions inside the bitmap.
		var carry uint64
		for i, h := range held[:nw] {
			r := dst[i]
			dst[i] = h | r<<sh | carry
			carry = r >> (64 - sh) // 0 when sh is 0: a shift by 64 clears a word
		}
		if carry != 0 {
			words[wi+int64(nw)] |= carry
		}
		off += int64(n)
		vals = vals[n:]
	}
}
