// Package storage implements the on-disk layout of the C-Store substrate:
// each column of a projection lives in its own file as a sequence of 64KB
// blocks (Section 1.1 of the paper), with a fixed header page and a block
// index footer. Reads go through a buffer pool; the reader assembles
// mini-column windows (still compressed) over arbitrary position ranges,
// touching only the blocks that overlap the window — which is what makes
// block-skipping in pipelined plans possible.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/positions"
)

const (
	// HeaderSize is the fixed size of the file header page.
	HeaderSize = 4096

	fileMagic = "MATSCOL1"

	// FormatVersion is the column-file format version. Version 2 added
	// per-block zone (min/max) metadata and the sorted flag.
	FormatVersion = 2

	// MaxBVDistinct bounds the number of distinct values a bit-vector
	// column may hold; beyond this the encoding is pathological (the paper
	// uses it for 7-value LINENUM and 3-value RETURNFLAG).
	MaxBVDistinct = 4096
)

// ErrCorruptFile is returned for structurally invalid column files.
var ErrCorruptFile = errors.New("storage: corrupt column file")

// BlockInfo is one entry of the block index footer.
type BlockInfo struct {
	// Cover is the position range (plain/RLE) or bit range (bit-vector)
	// spanned by the block.
	Cover positions.Range
	// Value is the distinct value a bit-vector block belongs to.
	Value int64
	// Count is the number of values (plain), triples (RLE) or bits (BV).
	Count uint32
	// MinV and MaxV bound the values inside the block (zone map). For
	// bit-vector blocks both equal Value. They are part of format version 2;
	// no scan reads them: deriving positions from them (Section 2.1.1 of the
	// paper) measured no faster than the window scan on any benchmark
	// workload (CHANGES.md, PR 18), so the executor has the one scan.
	MinV int64
	MaxV int64
}

type fileHeader struct {
	enc       encoding.Kind
	sorted    bool
	tuples    int64
	blocks    int64
	minV      int64
	maxV      int64
	distinct  int64
	avgRunLen float64
	footerOff int64
}

func (h fileHeader) marshal() []byte {
	buf := make([]byte, HeaderSize)
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint32(buf[8:], FormatVersion)
	buf[12] = byte(h.enc)
	if h.sorted {
		buf[13] = 1
	}
	binary.LittleEndian.PutUint64(buf[16:], uint64(h.tuples))
	binary.LittleEndian.PutUint64(buf[24:], uint64(h.blocks))
	binary.LittleEndian.PutUint64(buf[32:], uint64(h.minV))
	binary.LittleEndian.PutUint64(buf[40:], uint64(h.maxV))
	binary.LittleEndian.PutUint64(buf[48:], uint64(h.distinct))
	binary.LittleEndian.PutUint64(buf[56:], uint64(int64(h.avgRunLen*1e6)))
	binary.LittleEndian.PutUint64(buf[64:], uint64(h.footerOff))
	return buf
}

func unmarshalHeader(buf []byte) (fileHeader, error) {
	if len(buf) < HeaderSize || string(buf[:8]) != fileMagic {
		return fileHeader{}, fmt.Errorf("%w: bad magic", ErrCorruptFile)
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != FormatVersion {
		return fileHeader{}, fmt.Errorf("%w: version %d", ErrCorruptFile, v)
	}
	return fileHeader{
		enc:       encoding.Kind(buf[12]),
		sorted:    buf[13] == 1,
		tuples:    int64(binary.LittleEndian.Uint64(buf[16:])),
		blocks:    int64(binary.LittleEndian.Uint64(buf[24:])),
		minV:      int64(binary.LittleEndian.Uint64(buf[32:])),
		maxV:      int64(binary.LittleEndian.Uint64(buf[40:])),
		distinct:  int64(binary.LittleEndian.Uint64(buf[48:])),
		avgRunLen: float64(int64(binary.LittleEndian.Uint64(buf[56:]))) / 1e6,
		footerOff: int64(binary.LittleEndian.Uint64(buf[64:])),
	}, nil
}

const footerEntrySize = 48

func marshalFooter(index []BlockInfo) []byte {
	buf := make([]byte, len(index)*footerEntrySize)
	for i, bi := range index {
		off := i * footerEntrySize
		binary.LittleEndian.PutUint64(buf[off:], uint64(bi.Cover.Start))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(bi.Cover.End))
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(bi.Value))
		binary.LittleEndian.PutUint32(buf[off+24:], bi.Count)
		binary.LittleEndian.PutUint64(buf[off+32:], uint64(bi.MinV))
		binary.LittleEndian.PutUint64(buf[off+40:], uint64(bi.MaxV))
	}
	return buf
}

func unmarshalFooter(buf []byte, n int64) ([]BlockInfo, error) {
	if int64(len(buf)) < n*footerEntrySize {
		return nil, fmt.Errorf("%w: truncated footer", ErrCorruptFile)
	}
	index := make([]BlockInfo, n)
	for i := range index {
		off := i * footerEntrySize
		index[i] = BlockInfo{
			Cover: positions.Range{
				Start: int64(binary.LittleEndian.Uint64(buf[off:])),
				End:   int64(binary.LittleEndian.Uint64(buf[off+8:])),
			},
			Value: int64(binary.LittleEndian.Uint64(buf[off+16:])),
			Count: binary.LittleEndian.Uint32(buf[off+24:]),
			MinV:  int64(binary.LittleEndian.Uint64(buf[off+32:])),
			MaxV:  int64(binary.LittleEndian.Uint64(buf[off+40:])),
		}
	}
	return index, nil
}

// Column is an open, read-only column file.
type Column struct {
	path  string
	f     *os.File
	hdr   fileHeader
	index []BlockInfo
	// byValue maps each distinct value of a bit-vector column to its block
	// indexes, ordered by bit position.
	byValue map[int64][]int
	values  []int64
	pool    *buffer.Pool
	fid     uint64
}

// Open opens a column file for reading through pool.
func Open(path string, pool *buffer.Pool) (*Column, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hbuf := make([]byte, HeaderSize)
	if _, err := f.ReadAt(hbuf, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %v", ErrCorruptFile, err)
	}
	hdr, err := unmarshalHeader(hbuf)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fbuf := make([]byte, hdr.blocks*footerEntrySize)
	if _, err := f.ReadAt(fbuf, hdr.footerOff); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w: footer: %v", path, ErrCorruptFile, err)
	}
	index, err := unmarshalFooter(fbuf, hdr.blocks)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c := &Column{path: path, f: f, hdr: hdr, index: index, pool: pool, fid: pool.RegisterFile()}
	if hdr.enc == encoding.BitVector {
		c.byValue = make(map[int64][]int)
		for i, bi := range index {
			if _, seen := c.byValue[bi.Value]; !seen {
				c.values = append(c.values, bi.Value)
			}
			c.byValue[bi.Value] = append(c.byValue[bi.Value], i)
		}
		sort.Slice(c.values, func(i, j int) bool { return c.values[i] < c.values[j] })
	}
	if err := c.checkIndexTiles(); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// checkIndexTiles rejects a footer index whose covers do not tile the extent.
// Every reader advances through the index assuming they do — a plain or RLE
// column's blocks, and each distinct value's blocks of a bit-vector column,
// start at 0, each where the one before ended, and end at the tuple count — so
// an entry that overlaps its neighbour, leaves a gap or stops short would be
// read past its end or skipped without a word.
func (c *Column) checkIndexTiles() error {
	// Per tiling (one, under key 0, unless the column is bit-vector encoded):
	// where its next block is due, and its last entry so far.
	due, last := map[int64]int64{0: 0}, map[int64]int{}
	for i, bi := range c.index {
		k := int64(0)
		if c.hdr.enc == encoding.BitVector {
			k = bi.Value
		}
		if bi.Cover.Start != due[k] || bi.Cover.End <= due[k] {
			return fmt.Errorf("%s block %d: %w: index entry covers [%d,%d) where a block starting at %d is due",
				c.path, i, ErrCorruptFile, bi.Cover.Start, bi.Cover.End, due[k])
		}
		due[k], last[k] = bi.Cover.End, i
	}
	for k, end := range due {
		if _, any := last[k]; end != c.hdr.tuples && (any || len(c.index) == 0) {
			return fmt.Errorf("%s block %d: %w: index ends at %d of %d tuples", c.path, last[k], ErrCorruptFile, end, c.hdr.tuples)
		}
	}
	return nil
}

// Close releases the file handle.
func (c *Column) Close() error { return c.f.Close() }

// Path returns the file path.
func (c *Column) Path() string { return c.path }

// Encoding returns the column's encoding kind.
func (c *Column) Encoding() encoding.Kind { return c.hdr.enc }

// TupleCount returns the logical number of values in the column (the ||Ci||
// model term).
func (c *Column) TupleCount() int64 { return c.hdr.tuples }

// NumBlocks returns the number of data blocks (the |Ci| model term).
func (c *Column) NumBlocks() int { return int(c.hdr.blocks) }

// MinMax returns the column's value bounds (for selectivity estimation).
func (c *Column) MinMax() (int64, int64) { return c.hdr.minV, c.hdr.maxV }

// Distinct returns the number of distinct values.
func (c *Column) Distinct() int64 { return c.hdr.distinct }

// AvgRunLen returns the mean run length of equal consecutive values (the RL
// model term; 1 for unsorted data).
func (c *Column) AvgRunLen() float64 { return c.hdr.avgRunLen }

// Extent returns the full position range of the column.
func (c *Column) Extent() positions.Range { return positions.Range{Start: 0, End: c.hdr.tuples} }

// DistinctValues returns the sorted distinct values of a bit-vector column.
func (c *Column) DistinctValues() []int64 { return c.values }

func (c *Column) blockOffset(i int) int64 { return HeaderSize + int64(i)*encoding.BlockSize }

// block fetches and decodes block i through the buffer pool.
func (c *Column) block(i int) (any, error) {
	return c.pool.Get(buffer.Key{File: c.fid, Block: i}, c.blockLoader(i))
}

// blockLoader returns the read-decode-validate miss handler for block i,
// shared by the unpinned (Get) and pinned (Pin) fetch paths. A block that
// fails either check never enters the pool.
func (c *Column) blockLoader(i int) func() (any, int64, error) {
	return func() (any, int64, error) {
		buf := make([]byte, encoding.BlockSize)
		if _, err := c.f.ReadAt(buf, c.blockOffset(i)); err != nil {
			return nil, 0, fmt.Errorf("%s block %d: %w", c.path, i, err)
		}
		dec, err := encoding.DecodeBlock(buf)
		if err == nil {
			err = c.validateBlock(i, dec)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s block %d: %w", c.path, i, err)
		}
		return dec, encoding.BlockSize, nil
	}
}

// validateBlock checks a decoded block against what the file says sits in
// slot i: the header's encoding and the footer entry's cover (and, for a
// bit-vector block, its value). A block's checksum only proves the block is
// some block this writer produced — two blocks swapped, or one copied over
// another, pass it — and every reader below indexes into the block by the
// footer's cover, so a block that is not the one the footer describes would
// read out of bounds or return another range's values. RLE runs must also
// tile the cover without a gap, which is what lets a reader find a position's
// run by binary search.
func (c *Column) validateBlock(i int, dec any) error {
	want := c.index[i]
	var kind encoding.Kind
	var cover positions.Range
	var inside error // what is wrong within a block of the right kind and cover
	switch b := dec.(type) {
	case *encoding.PlainBlock:
		kind, cover = encoding.Plain, b.Cover()
	case *encoding.RLEBlock:
		kind, cover = encoding.RLE, b.Cover()
		for j := 1; j < len(b.Triples); j++ {
			if b.Triples[j].Start != b.Triples[j-1].End() {
				inside = fmt.Errorf("%w: gap before RLE run %d", ErrCorruptFile, j)
				break
			}
		}
	case *encoding.BVBlock:
		kind, cover = encoding.BitVector, b.Cover()
		if b.Value != want.Value {
			inside = fmt.Errorf("%w: bit-string of value %d where the index has value %d", ErrCorruptFile, b.Value, want.Value)
		}
	}
	if kind != c.hdr.enc {
		return fmt.Errorf("%w: %v block in a %v column", ErrCorruptFile, kind, c.hdr.enc)
	}
	if cover != want.Cover {
		return fmt.Errorf("%w: block covers [%d,%d) where the index has [%d,%d)",
			ErrCorruptFile, cover.Start, cover.End, want.Cover.Start, want.Cover.End)
	}
	return inside
}

// blockAs types a fetched block (c.block or c.pinBlock) as the column's
// encoding's block type B. The assertion cannot fail: validateBlock admitted
// the block only with the header's kind, and every caller dispatches on that
// same header.
func blockAs[B any](dec any, err error) (*B, error) {
	if err != nil {
		return nil, err
	}
	return dec.(*B), nil
}

// blocksOverlapping returns the indexes of plain/RLE blocks whose cover
// intersects r. The index is sorted by Cover.Start.
func (c *Column) blocksOverlapping(r positions.Range) []int {
	lo := sort.Search(len(c.index), func(i int) bool { return c.index[i].Cover.End > r.Start })
	var out []int
	for i := lo; i < len(c.index) && c.index[i].Cover.Start < r.End; i++ {
		out = append(out, i)
	}
	return out
}

// bvBlocksOverlapping returns block indexes of value's bit-string
// intersecting the bit range r. A value's blocks tile [0, tuples) in
// ascending bit order, so the first overlap is found by binary search.
func (c *Column) bvBlocksOverlapping(value int64, r positions.Range) []int {
	blocks := c.byValue[value]
	lo := sort.Search(len(blocks), func(j int) bool { return c.index[blocks[j]].Cover.End > r.Start })
	var out []int
	for _, i := range blocks[lo:] {
		if c.index[i].Cover.Start >= r.End {
			break
		}
		out = append(out, i)
	}
	return out
}

// Window assembles a mini-column over r (clipped to the column extent),
// reading only the blocks that overlap. For bit-vector columns r.Start must
// be 64-aligned. An empty window over a valid range returns a mini-column
// with an empty covering range and no error.
func (c *Column) Window(r positions.Range) (encoding.MiniColumn, error) {
	r = r.Intersect(c.Extent())
	switch c.hdr.enc {
	case encoding.Plain:
		return c.plainWindow(r)
	case encoding.RLE:
		return c.rleWindow(r)
	case encoding.BitVector:
		return c.bvWindow(r)
	default:
		return nil, fmt.Errorf("storage: unsupported encoding %v", c.hdr.enc)
	}
}

func (c *Column) plainWindow(r positions.Range) (encoding.MiniColumn, error) {
	m := encoding.NewPlainMini(r)
	if r.Empty() {
		return m, nil
	}
	for _, i := range c.blocksOverlapping(r) {
		pb, err := blockAs[encoding.PlainBlock](c.block(i))
		if err != nil {
			return nil, err
		}
		o := pb.Cover().Intersect(r)
		m.AddSegment(o.Start, pb.Vals[o.Start-pb.Start:o.End-pb.Start])
	}
	return m, nil
}

func (c *Column) rleWindow(r positions.Range) (encoding.MiniColumn, error) {
	if r.Empty() {
		return encoding.NewRLEMini(r, nil), nil
	}
	var triples []encoding.Triple
	for _, i := range c.blocksOverlapping(r) {
		rb, err := blockAs[encoding.RLEBlock](c.block(i))
		if err != nil {
			return nil, err
		}
		for _, t := range rb.Triples {
			o := t.Cover().Intersect(r)
			if o.Empty() {
				continue
			}
			triples = append(triples, encoding.Triple{Value: t.Value, Start: o.Start, Len: o.Len()})
		}
	}
	return encoding.NewRLEMini(r, triples), nil
}

func (c *Column) bvWindow(r positions.Range) (encoding.MiniColumn, error) {
	if r.Start%64 != 0 {
		return nil, fmt.Errorf("storage: bit-vector window start %d not 64-aligned", r.Start)
	}
	if r.Empty() {
		return encoding.NewBVMini(r, nil, nil), nil
	}
	nw := (r.Len() + 63) / 64
	bms := make([]*positions.Bitmap, len(c.values))
	for vi, v := range c.values {
		words := make([]uint64, nw)
		for _, i := range c.bvBlocksOverlapping(v, r) {
			bb, err := blockAs[encoding.BVBlock](c.block(i))
			if err != nil {
				return nil, err
			}
			o := bb.Cover().Intersect(r)
			if o.Empty() {
				continue
			}
			// Both o.Start-r.Start and o.Start-bb.StartBit are 64-aligned
			// (chunk starts and block starts are multiples of 64).
			dst := (o.Start - r.Start) / 64
			src := (o.Start - bb.StartBit) / 64
			n := (o.Len() + 63) / 64
			copy(words[dst:dst+n], bb.Words[src:src+n])
		}
		// Clear bits beyond the window end.
		if tail := r.Len() % 64; tail != 0 {
			words[nw-1] &= (1 << uint(tail)) - 1
		}
		bms[vi] = positions.BitmapFromWords(r.Start, r.Len(), words)
	}
	return encoding.NewBVMini(r, c.values, bms), nil
}

// Sorted reports whether the column's values are globally non-decreasing
// (e.g. the primary sort-key column of a projection).
func (c *Column) Sorted() bool { return c.hdr.sorted }

// ValueAt reads the single value at pos, touching only the block(s)
// containing it. For bit-vector columns this must probe each distinct
// value's bit-string — the cost asymmetry the paper notes for DS3 over
// bit-vector data.
func (c *Column) ValueAt(pos int64) (int64, error) {
	if pos < 0 || pos >= c.hdr.tuples {
		return 0, fmt.Errorf("storage: position %d out of range [0,%d)", pos, c.hdr.tuples)
	}
	switch c.hdr.enc {
	case encoding.Plain:
		pb, err := blockAs[encoding.PlainBlock](c.block(c.blockContaining(pos)))
		if err != nil {
			return 0, err
		}
		return pb.Vals[pos-pb.Start], nil
	case encoding.RLE:
		rb, err := blockAs[encoding.RLEBlock](c.block(c.blockContaining(pos)))
		if err != nil {
			return 0, err
		}
		ts := rb.Triples
		j := sort.Search(len(ts), func(j int) bool { return ts[j].End() > pos })
		return ts[j].Value, nil
	case encoding.BitVector:
		// Each distinct value's blocks tile [0, tuples) in ascending bit
		// order, so the block holding pos in that value's bit-string is found
		// by binary search — one block probe per distinct value instead of a
		// linear scan over all values × blocks.
		for _, v := range c.values {
			blocks := c.byValue[v]
			j := sort.Search(len(blocks), func(j int) bool { return c.index[blocks[j]].Cover.End > pos })
			if j == len(blocks) || !c.index[blocks[j]].Cover.Contains(pos) {
				continue
			}
			bb, err := blockAs[encoding.BVBlock](c.block(blocks[j]))
			if err != nil {
				return 0, err
			}
			bit := pos - bb.StartBit
			if bb.Words[bit>>6]&(1<<uint(bit&63)) != 0 {
				return v, nil
			}
		}
		return 0, fmt.Errorf("%s: %w: position %d set in no bit-string", c.path, ErrCorruptFile, pos)
	default:
		return 0, fmt.Errorf("storage: unsupported encoding %v", c.hdr.enc)
	}
}

func (c *Column) blockContaining(pos int64) int {
	return sort.Search(len(c.index), func(i int) bool { return c.index[i].Cover.End > pos })
}
