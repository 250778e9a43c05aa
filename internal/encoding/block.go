package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"

	"matstore/internal/positions"
)

// On-disk block layout. Every data block is exactly BlockSize bytes (the
// paper's 64KB blocks), beginning with a fixed 32-byte header:
//
//	off  0: kind      uint8
//	off  1: flags     uint8  (unused, zero)
//	off  2: reserved  uint16
//	off  4: count     uint32 — #values (plain), #triples (RLE), #bits (BV)
//	off  8: start     int64  — first position (plain/RLE) or first bit (BV)
//	off 16: value     int64  — the distinct value (BV only)
//	off 24: checksum  uint64 — FNV-1a of the payload, for corruption detection
//
// The payload occupies the remaining BlockSize-32 bytes.
const (
	// BlockSize is the on-disk block size: 64KB, as in C-Store.
	BlockSize = 64 * 1024
	// BlockHeaderSize is the fixed per-block header length.
	BlockHeaderSize = 32
	// BlockPayload is the usable payload per block.
	BlockPayload = BlockSize - BlockHeaderSize

	// PlainBlockCap is the number of 8-byte values per plain block.
	PlainBlockCap = BlockPayload / 8 // 8188
	// RLEBlockCap is the number of 24-byte triples per RLE block.
	RLEBlockCap = BlockPayload / 24 // 2729
	// BVBlockBits is the number of bits per bit-vector block. It is a
	// multiple of 64 (8188 words), so any 64-aligned chunk boundary falls on
	// a word boundary inside a block.
	BVBlockBits = (BlockPayload / 8) * 64 // 523,... = 8188*64
)

// ErrCorruptBlock is returned when a block fails structural validation or
// its checksum does not match.
var ErrCorruptBlock = errors.New("encoding: corrupt block")

// PlainBlock is a decoded uncompressed block.
type PlainBlock struct {
	Start int64
	Vals  []int64
}

// Cover returns the positions spanned by the block.
func (b *PlainBlock) Cover() positions.Range {
	return positions.Range{Start: b.Start, End: b.Start + int64(len(b.Vals))}
}

// RLEBlock is a decoded run-length-encoded block.
type RLEBlock struct {
	Triples []Triple
}

// Cover returns the positions spanned by the block's runs.
func (b *RLEBlock) Cover() positions.Range {
	if len(b.Triples) == 0 {
		return positions.Range{}
	}
	return positions.Range{Start: b.Triples[0].Start, End: b.Triples[len(b.Triples)-1].End()}
}

// BVBlock is a decoded bit-vector block: a window of one value's bit-string.
type BVBlock struct {
	Value    int64
	StartBit int64
	NBits    int64
	Words    []uint64
}

// Cover returns the bit positions spanned by the block.
func (b *BVBlock) Cover() positions.Range {
	return positions.Range{Start: b.StartBit, End: b.StartBit + b.NBits}
}

// fnv1a is a small stdlib-free checksum (FNV-1a 64) over payload bytes.
func fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

func putHeader(buf []byte, kind Kind, count uint32, start, value int64) {
	buf[0] = byte(kind)
	buf[1] = 0
	binary.LittleEndian.PutUint16(buf[2:], 0)
	binary.LittleEndian.PutUint32(buf[4:], count)
	binary.LittleEndian.PutUint64(buf[8:], uint64(start))
	binary.LittleEndian.PutUint64(buf[16:], uint64(value))
}

func sealBlock(buf []byte, payloadLen int) {
	binary.LittleEndian.PutUint64(buf[24:], fnv1a(buf[BlockHeaderSize:BlockHeaderSize+payloadLen]))
	// Zero any slack so blocks are deterministic on disk.
	clear(buf[BlockHeaderSize+payloadLen : BlockSize])
}

type blockHeader struct {
	kind  Kind
	count uint32
	start int64
	value int64
	sum   uint64
}

func readHeader(buf []byte) (blockHeader, error) {
	if len(buf) < BlockSize {
		return blockHeader{}, fmt.Errorf("%w: short block (%d bytes)", ErrCorruptBlock, len(buf))
	}
	return blockHeader{
		kind:  Kind(buf[0]),
		count: binary.LittleEndian.Uint32(buf[4:]),
		start: int64(binary.LittleEndian.Uint64(buf[8:])),
		value: int64(binary.LittleEndian.Uint64(buf[16:])),
		sum:   binary.LittleEndian.Uint64(buf[24:]),
	}, nil
}

// EncodePlainBlock writes up to PlainBlockCap values from vals into buf
// (which must be BlockSize bytes) and returns the number consumed.
func EncodePlainBlock(buf []byte, startPos int64, vals []int64) int {
	n := len(vals)
	if n > PlainBlockCap {
		n = PlainBlockCap
	}
	putHeader(buf, Plain, uint32(n), startPos, 0)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[BlockHeaderSize+8*i:], uint64(vals[i]))
	}
	sealBlock(buf, 8*n)
	return n
}

// DecodePlainBlock parses a plain block, verifying its checksum.
func DecodePlainBlock(buf []byte) (*PlainBlock, error) {
	h, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	if h.kind != Plain {
		return nil, fmt.Errorf("%w: kind %v, want plain", ErrCorruptBlock, h.kind)
	}
	n := int(h.count)
	if n > PlainBlockCap {
		return nil, fmt.Errorf("%w: plain count %d exceeds capacity", ErrCorruptBlock, n)
	}
	if fnv1a(buf[BlockHeaderSize:BlockHeaderSize+8*n]) != h.sum {
		return nil, fmt.Errorf("%w: plain checksum mismatch", ErrCorruptBlock)
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(buf[BlockHeaderSize+8*i:]))
	}
	return &PlainBlock{Start: h.start, Vals: vals}, nil
}

// EncodeRLEBlock writes up to RLEBlockCap triples into buf and returns the
// number consumed.
func EncodeRLEBlock(buf []byte, triples []Triple) int {
	n := len(triples)
	if n > RLEBlockCap {
		n = RLEBlockCap
	}
	start := int64(0)
	if n > 0 {
		start = triples[0].Start
	}
	putHeader(buf, RLE, uint32(n), start, 0)
	for i := 0; i < n; i++ {
		off := BlockHeaderSize + 24*i
		binary.LittleEndian.PutUint64(buf[off:], uint64(triples[i].Value))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(triples[i].Start))
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(triples[i].Len))
	}
	sealBlock(buf, 24*n)
	return n
}

// DecodeRLEBlock parses an RLE block, verifying its checksum and that runs
// are sorted and non-overlapping.
func DecodeRLEBlock(buf []byte) (*RLEBlock, error) {
	h, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	if h.kind != RLE {
		return nil, fmt.Errorf("%w: kind %v, want rle", ErrCorruptBlock, h.kind)
	}
	n := int(h.count)
	if n > RLEBlockCap {
		return nil, fmt.Errorf("%w: rle count %d exceeds capacity", ErrCorruptBlock, n)
	}
	if fnv1a(buf[BlockHeaderSize:BlockHeaderSize+24*n]) != h.sum {
		return nil, fmt.Errorf("%w: rle checksum mismatch", ErrCorruptBlock)
	}
	ts := make([]Triple, n)
	for i := range ts {
		off := BlockHeaderSize + 24*i
		ts[i] = Triple{
			Value: int64(binary.LittleEndian.Uint64(buf[off:])),
			Start: int64(binary.LittleEndian.Uint64(buf[off+8:])),
			Len:   int64(binary.LittleEndian.Uint64(buf[off+16:])),
		}
		if ts[i].Len <= 0 || (i > 0 && ts[i].Start < ts[i-1].End()) {
			return nil, fmt.Errorf("%w: rle runs unsorted or empty", ErrCorruptBlock)
		}
	}
	return &RLEBlock{Triples: ts}, nil
}

// EncodeBVBlock writes up to BVBlockBits bits of value's bit-string,
// starting at bit startBit (word offset startBit/64 of words), into buf.
// nbits is the number of valid bits remaining from startBit; the return
// value is the number of bits consumed.
func EncodeBVBlock(buf []byte, value int64, startBit int64, words []uint64, nbits int64) int64 {
	n := nbits
	if n > BVBlockBits {
		n = BVBlockBits
	}
	putHeader(buf, BitVector, uint32(n), startBit, value)
	nw := (n + 63) / 64
	base := startBit / 64
	for i := int64(0); i < nw; i++ {
		binary.LittleEndian.PutUint64(buf[BlockHeaderSize+8*i:], words[base+i])
	}
	sealBlock(buf, int(8*nw))
	return n
}

// DecodeBVBlock parses a bit-vector block, verifying its checksum.
func DecodeBVBlock(buf []byte) (*BVBlock, error) {
	h, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	if h.kind != BitVector {
		return nil, fmt.Errorf("%w: kind %v, want bitvector", ErrCorruptBlock, h.kind)
	}
	n := int64(h.count)
	if n > BVBlockBits {
		return nil, fmt.Errorf("%w: bv count %d exceeds capacity", ErrCorruptBlock, n)
	}
	nw := (n + 63) / 64
	if fnv1a(buf[BlockHeaderSize:BlockHeaderSize+8*nw]) != h.sum {
		return nil, fmt.Errorf("%w: bv checksum mismatch", ErrCorruptBlock)
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[BlockHeaderSize+8*i:])
	}
	return &BVBlock{Value: h.value, StartBit: h.start, NBits: n, Words: words}, nil
}

// DecodeBlock decodes any block by dispatching on its header kind.
func DecodeBlock(buf []byte) (any, error) {
	h, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	switch h.kind {
	case Plain:
		return DecodePlainBlock(buf)
	case RLE:
		return DecodeRLEBlock(buf)
	case BitVector:
		return DecodeBVBlock(buf)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorruptBlock, buf[0])
	}
}
