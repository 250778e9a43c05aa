package storage

import (
	"fmt"
	"slices"
	"sort"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/kernels"
	"matstore/internal/positions"
)

// This file implements the batched gather path: fetching the values at a set
// of positions block by block, each decoded block pinned once through the
// buffer pool (one lock round-trip per block instead of one per position, as
// the per-position ValueAt path pays) and gathered from with the descriptor
// in its own representation — the same walk a mini-column's Extract makes
// over its window (encoding.Gather), here over pinned blocks. DS3 re-access,
// DS4 widening, and the join's deferred-fetch post-pass all land here.

// pinBlock fetches and decodes block i through the buffer pool, pinned
// against eviction until unpinBlock.
func (c *Column) pinBlock(i int) (any, error) {
	return c.pool.Pin(buffer.Key{File: c.fid, Block: i}, c.blockLoader(i))
}

func (c *Column) unpinBlock(i int) {
	c.pool.Unpin(buffer.Key{File: c.fid, Block: i})
}

// GatherAt appends to dst the values at every position of ps, in position
// order, and returns the extended slice. Positions outside the column extent
// are ignored. Unlike per-position ValueAt, each block under which ps holds a
// position is pinned once and gathered from with the descriptor in its own
// representation (encoding.Gather: words, direct indexes or copies), so the
// buffer-pool cost is O(blocks touched) rather than O(positions).
func (c *Column) GatherAt(ps positions.Set, dst []int64) ([]int64, error) {
	switch c.hdr.enc {
	case encoding.Plain, encoding.RLE:
		return encoding.Gather(dst, blockSegments{c}, ps)
	case encoding.BitVector:
		return c.gatherBV(ps, dst)
	default:
		return dst, fmt.Errorf("storage: unsupported encoding %v", c.hdr.enc)
	}
}

// blockSegments presents a plain or run-length-encoded column's blocks to
// encoding.Gather: the footer index tiles the extent (Open checks it), and a
// block is pinned in the buffer pool only while it is gathered from.
type blockSegments struct{ c *Column }

func (s blockSegments) Covering() positions.Range          { return s.c.Extent() }
func (s blockSegments) NumSegments() int                   { return len(s.c.index) }
func (s blockSegments) SegmentCover(i int) positions.Range { return s.c.index[i].Cover }
func (s blockSegments) Unpin(i int)                        { s.c.unpinBlock(i) }

func (s blockSegments) Pin(i int) (encoding.Segment, error) {
	dec, err := s.c.pinBlock(i)
	seg := encoding.Segment{Cover: s.c.index[i].Cover}
	switch b := dec.(type) { // validateBlock admitted the block with this cover
	case *encoding.PlainBlock:
		seg.Vals = b.Vals
	case *encoding.RLEBlock:
		seg.Triples = b.Triples
	}
	return seg, err
}

// gatherBV inverts the bit-vector encoding value by value: the descriptor is
// taken as bit-string words and every distinct value's blocks are ANDed with
// it in place, a surviving bit storing the value at its rank among the
// descriptor's positions (kernels.ScatterMasked). Every position belongs to
// exactly one distinct value's bit-string, so the passes together fill every
// output slot once; a block under which the descriptor holds no position is
// never read.
func (c *Column) gatherBV(ps positions.Set, dst []int64) ([]int64, error) {
	desc, base, n := positions.MaskWords(ps, c.Extent())
	if n == 0 {
		return dst, nil
	}
	span := positions.Range{Start: base, End: base + int64(len(desc))<<6}
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	for _, v := range c.values {
		blocks := c.byValue[v]
		bj := sort.Search(len(blocks), func(j int) bool { return c.index[blocks[j]].Cover.End > span.Start })
		out := dst[at:]
		for ; bj < len(blocks) && c.index[blocks[bj]].Cover.Start < span.End; bj++ {
			// Block covers and the descriptor's base are multiples of 64, so a
			// block's words line up with the descriptor's.
			cover := c.index[blocks[bj]].Cover.Intersect(span)
			d := desc[(cover.Start-base)>>6 : (cover.End-base+63)>>6]
			k := kernels.CountMask(d, len(d)<<6)
			if k == 0 {
				continue
			}
			bb, err := blockAs[encoding.BVBlock](c.pinBlock(blocks[bj]))
			if err != nil {
				return dst[:at], err
			}
			kernels.ScatterMasked(out, v, bb.Words[(cover.Start-bb.StartBit)>>6:], d)
			c.unpinBlock(blocks[bj])
			out = out[min(k, len(out)):]
		}
	}
	return dst, nil
}

// GatherUnordered appends to dst the values at ps[0], ps[1], ... — arbitrary
// positions, unsorted and possibly repeated, as the join's deferred-fetch
// post-pass produces them (right positions emerge in left probe order): one
// batched GatherAt under encoding.Unordered, so the stored column is walked
// once in block order no matter how shuffled the input is. Every position must
// lie within the column extent. dst may be ps[:0], a position list overwritten
// in place by the values at those positions.
func (c *Column) GatherUnordered(ps []int64, dst []int64) ([]int64, error) {
	var u encoding.Unordered
	return u.Gather(dst, ps, c.Extent(), c.GatherAt)
}
