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
// tile: 64 output words on the stack, merged into the destination bitmap in
// one pass. Tiling keeps the unaligned (shifted) merge allocation-free.
const filterTileVals = 64 * 64

// FilterIntoBitmap evaluates the compiled kernel k over vals — whose first
// value sits at position base — and ORs the resulting comparison bits into
// bm. The bitmap must cover [base, base+len(vals)); base need not be
// 64-aligned (plain blocks hold 8188 values, so mid-chunk segments start at
// arbitrary bit offsets) — misaligned emissions are shifted word-at-a-time.
func FilterIntoBitmap(bm *positions.Bitmap, base int64, vals []int64, k pred.Kernel) {
	off := base - bm.Start()
	var tile [filterTileVals / 64]uint64
	for len(vals) > 0 {
		n := len(vals)
		if n > filterTileVals {
			n = filterTileVals
		}
		nw := (n + 63) / 64
		k(vals[:n], tile[:nw])
		orWords(bm, off, tile[:nw])
		off += int64(n)
		vals = vals[n:]
	}
}

// orWords ORs the given result words into bm starting at bit offset bitOff
// (relative to the bitmap start). Zero words are skipped, so sparse filter
// results cost only the comparison loop.
func orWords(bm *positions.Bitmap, bitOff int64, words []uint64) {
	wi := bitOff >> 6
	sh := uint(bitOff & 63)
	if sh == 0 {
		for i, w := range words {
			if w != 0 {
				bm.OrWordAt(wi+int64(i), w)
			}
		}
		return
	}
	for i, w := range words {
		if w == 0 {
			continue
		}
		bm.OrWordAt(wi+int64(i), w<<sh)
		if hi := w >> (64 - sh); hi != 0 {
			bm.OrWordAt(wi+int64(i)+1, hi)
		}
	}
}
