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
// of positions by grouping position runs by block, pinning each decoded
// block once through the buffer pool (one lock round-trip per block instead
// of one per position, as the per-position ValueAt path pays), and copying
// with tight per-encoding loops. It is the storage half of the kernels
// layer: DS3 re-access, DS4 widening, and the join's deferred-fetch
// post-pass all land here.

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
// are ignored. Unlike per-position ValueAt, the block containing a run is
// located once (binary search, then monotone advance), pinned once, and
// copied from with a tight per-encoding loop, so the buffer-pool cost is
// O(blocks touched) rather than O(positions).
func (c *Column) GatherAt(ps positions.Set, dst []int64) ([]int64, error) {
	switch c.hdr.enc {
	case encoding.Plain:
		return c.gatherPlain(ps, dst)
	case encoding.RLE:
		return c.gatherRLE(ps, dst)
	case encoding.BitVector:
		return c.gatherBV(ps, dst)
	default:
		return dst, fmt.Errorf("storage: unsupported encoding %v", c.hdr.enc)
	}
}

func (c *Column) gatherPlain(ps positions.Set, dst []int64) ([]int64, error) {
	it := ps.Runs()
	bi := -1
	pinned := -1
	var pb *encoding.PlainBlock
	defer func() {
		if pinned >= 0 {
			c.unpinBlock(pinned)
		}
	}()
	for {
		r, ok := it.Next()
		if !ok {
			return dst, nil
		}
		r = r.Intersect(c.Extent())
		for pos := r.Start; pos < r.End; {
			if bi < 0 {
				bi = c.blockContaining(pos)
			} else {
				for c.index[bi].Cover.End <= pos {
					bi++
				}
			}
			if bi != pinned {
				if pinned >= 0 {
					c.unpinBlock(pinned)
					pinned = -1
				}
				var err error
				if pb, err = blockAs[encoding.PlainBlock](c.pinBlock(bi)); err != nil {
					return dst, err
				}
				pinned = bi
			}
			end := r.End
			if pe := pb.Start + int64(len(pb.Vals)); pe < end {
				end = pe
			}
			dst = append(dst, pb.Vals[pos-pb.Start:end-pb.Start]...)
			pos = end
		}
	}
}

func (c *Column) gatherRLE(ps positions.Set, dst []int64) ([]int64, error) {
	it := ps.Runs()
	bi := -1
	pinned := -1
	var rb *encoding.RLEBlock
	defer func() {
		if pinned >= 0 {
			c.unpinBlock(pinned)
		}
	}()
	for {
		r, ok := it.Next()
		if !ok {
			return dst, nil
		}
		r = r.Intersect(c.Extent())
		for pos := r.Start; pos < r.End; {
			if bi < 0 {
				bi = c.blockContaining(pos)
			} else {
				for c.index[bi].Cover.End <= pos {
					bi++
				}
			}
			if bi != pinned {
				if pinned >= 0 {
					c.unpinBlock(pinned)
					pinned = -1
				}
				var err error
				if rb, err = blockAs[encoding.RLEBlock](c.pinBlock(bi)); err != nil {
					return dst, err
				}
				pinned = bi
			}
			end := r.End
			if be := c.index[bi].Cover.End; be < end {
				end = be
			}
			// One binary search per (run, block) segment, then run-at-a-time
			// emission: each overlapping triple contributes value × overlap.
			ts := rb.Triples
			tj := sort.Search(len(ts), func(j int) bool { return ts[j].End() > pos })
			for pos < end {
				t := ts[tj]
				o := t.Cover().Intersect(positions.Range{Start: pos, End: end})
				for k := int64(0); k < o.Len(); k++ {
					dst = append(dst, t.Value)
				}
				pos = o.End
				tj++
			}
		}
	}
}

func (c *Column) gatherBV(ps positions.Set, dst []int64) ([]int64, error) {
	// Materialize the run decomposition once, with output offsets: the
	// gather inverts the bit-vector encoding value-by-value, so every
	// (value, block, run) triple needs the rank of its first position.
	var runs positions.Ranges
	var offs []int64
	var total int64
	it := ps.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		r = r.Intersect(c.Extent())
		if r.Empty() {
			continue
		}
		runs = append(runs, r)
		offs = append(offs, total)
		total += r.Len()
	}
	if total == 0 {
		return dst, nil
	}
	covering := positions.Range{Start: runs[0].Start, End: runs[len(runs)-1].End}
	start := len(dst)
	dst = append(dst, make([]int64, total)...)
	out := dst[start:]
	// Every position belongs to exactly one distinct value's bit-string, so
	// scattering each value over its set bits fills every output slot once.
	for _, v := range c.values {
		blocks := c.byValue[v]
		bj := sort.Search(len(blocks), func(j int) bool { return c.index[blocks[j]].Cover.End > covering.Start })
		ri := 0
		for ; bj < len(blocks); bj++ {
			bi := blocks[bj]
			cover := c.index[bi].Cover
			if cover.Start >= covering.End {
				break
			}
			for ri < len(runs) && runs[ri].End <= cover.Start {
				ri++
			}
			if ri == len(runs) {
				break
			}
			if runs[ri].Start >= cover.End {
				continue // no requested position in this block: skip the read
			}
			bb, err := blockAs[encoding.BVBlock](c.pinBlock(bi))
			if err != nil {
				return dst, err
			}
			for rj := ri; rj < len(runs) && runs[rj].Start < cover.End; rj++ {
				o := runs[rj].Intersect(cover)
				if o.Empty() {
					continue
				}
				kernels.ScatterBits(out, v, bb.Words, bb.StartBit, o, offs[rj]+(o.Start-runs[rj].Start))
			}
			c.unpinBlock(bi)
		}
	}
	return dst, nil
}

// GatherUnordered appends to dst the values at ps[0], ps[1], ... — arbitrary
// positions, unsorted and possibly repeated, as the join's deferred-fetch
// post-pass produces them (right positions emerge in left probe order).
// Dense inputs (positions covering a bounded span, the common join shape —
// many probe matches over a small inner table) materialize the covering
// window once with one batched gather and index it directly; sparse inputs
// are sorted, deduplicated, fetched with one batched GatherAt, and scattered
// back to input order. Either way the stored column is walked once in block
// order no matter how shuffled the input is. Every position must lie within
// the column extent. dst may be ps[:0]: each value is stored after its
// position has been read, so a position list can be overwritten in place by
// the values at those positions.
func (c *Column) GatherUnordered(ps []int64, dst []int64) ([]int64, error) {
	if len(ps) == 0 {
		return dst, nil
	}
	lo, hi := ps[0], ps[0]
	for _, p := range ps[1:] {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if lo < 0 || hi >= c.hdr.tuples {
		return dst, fmt.Errorf("storage: gather position out of range [0,%d)", c.hdr.tuples)
	}
	if spread := hi - lo + 1; spread <= int64(len(ps))*8 {
		// Dense: one contiguous gather of the covering span, then direct
		// indexing — no sort, no per-output binary search.
		window, err := c.GatherAt(positions.Ranges{{Start: lo, End: hi + 1}}, make([]int64, 0, spread))
		if err != nil {
			return dst, err
		}
		for _, p := range ps {
			dst = append(dst, window[p-lo])
		}
		return dst, nil
	}
	uniq := make([]int64, len(ps))
	copy(uniq, ps)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	n := len(uniq)
	vals, err := c.GatherAt(positions.List(uniq), make([]int64, 0, n))
	if err != nil {
		return dst, err
	}
	for _, p := range ps {
		// Hand-rolled binary search: this is the per-output inner loop.
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if uniq[mid] < p {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		dst = append(dst, vals[lo])
	}
	return dst, nil
}
