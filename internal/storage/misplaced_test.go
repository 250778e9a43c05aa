package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/positions"
)

// A block that passes its own checksum can still sit in the wrong slot of
// the file: two blocks swapped, one copied over another, or a block of
// another encoding. Every read path must report such a block as
// ErrCorruptFile naming the file and the block — never index past a slice or
// return another block's values — and must keep serving the blocks that are
// where the footer says they are.

// rawBlock returns block i's bytes in a column file image.
func rawBlock(raw []byte, i int) []byte {
	off := HeaderSize + i*encoding.BlockSize
	return raw[off : off+encoding.BlockSize]
}

func TestMisplacedBlocks(t *testing.T) {
	plainVals := make([]int64, 3*encoding.PlainBlockCap)
	for i := range plainVals {
		plainVals[i] = int64(i % 1000)
	}
	// One run per value: three blocks of RLEBlockCap triples.
	rleVals := make([]int64, 3*encoding.RLEBlockCap)
	for i := range rleVals {
		rleVals[i] = int64(i % 7)
	}
	// Two distinct values over more bits than one block holds: blocks 0 and 1
	// are value 0's bit-string, blocks 2 and 3 value 1's.
	bvVals := make([]int64, encoding.BVBlockBits+70000)
	for i := range bvVals {
		bvVals[i] = int64(i % 3 % 2)
	}
	// foreign is a well-formed block of an encoding none of the plain and
	// bit-vector columns use, and plainForeign one the RLE column does not.
	foreign := make([]byte, encoding.BlockSize)
	encoding.EncodeRLEBlock(foreign, []encoding.Triple{{Value: 1, Start: 0, Len: 10}})
	plainForeign := make([]byte, encoding.BlockSize)
	encoding.EncodePlainBlock(plainForeign, 0, []int64{1, 2, 3})

	for _, tc := range []struct {
		enc  encoding.Kind
		vals []int64
		// swap exchanges two blocks; for the bit-vector column they are the
		// second blocks of the two values, which cover the same bit range, so
		// only the value tells them apart.
		swap    [2]int
		foreign []byte
	}{
		{encoding.Plain, plainVals, [2]int{0, 1}, foreign},
		{encoding.RLE, rleVals, [2]int{0, 1}, plainForeign},
		{encoding.BitVector, bvVals, [2]int{1, 3}, foreign},
	} {
		for _, damage := range []struct {
			name string
			bad  []int // blocks no longer where the footer says
			do   func(raw []byte)
		}{
			{"swapped", tc.swap[:], func(raw []byte) {
				a, b := rawBlock(raw, tc.swap[0]), rawBlock(raw, tc.swap[1])
				tmp := slices.Clone(a)
				copy(a, b)
				copy(b, tmp)
			}},
			{"duplicated", []int{1}, func(raw []byte) { copy(rawBlock(raw, 1), rawBlock(raw, 0)) }},
			{"wrong-kind", []int{1}, func(raw []byte) { copy(rawBlock(raw, 1), tc.foreign) }},
		} {
			t.Run(fmt.Sprintf("%v/%s", tc.enc, damage.name), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "c.col")
				writeColumn(t, path, tc.enc, tc.vals)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				damage.do(raw)
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				c := openColumn(t, path)
				checkMisplaced(t, c, tc.vals, damage.bad)
			})
		}
	}
}

// checkMisplaced drives the four read paths over every block's cover: a
// cover that needs a misplaced block must fail with ErrCorruptFile naming the
// file and that block, any other must return the written values.
func checkMisplaced(t *testing.T, c *Column, vals []int64, bad []int) {
	t.Helper()
	for i, bi := range c.index {
		cover := bi.Cover
		// A bit-vector read of a bit range needs every value's block over it.
		var needs []int
		for j, bj := range c.index {
			if j == i || (c.Encoding() == encoding.BitVector && !bj.Cover.Intersect(cover).Empty()) {
				needs = append(needs, j)
			}
		}
		var hit []int
		for _, j := range needs {
			if slices.Contains(bad, j) {
				hit = append(hit, j)
			}
		}
		want := vals[cover.Start:cover.End]
		probe := []int64{cover.End - 1, cover.Start, cover.Start + cover.Len()/2}
		check := func(path string, got []int64, wantVals []int64, err error) {
			t.Helper()
			if len(hit) == 0 {
				if err != nil || !slices.Equal(got, wantVals) {
					t.Errorf("block %d %s: intact block not served (err %v)", i, path, err)
				}
				return
			}
			if !errors.Is(err, ErrCorruptFile) || !strings.Contains(err.Error(), c.Path()) {
				t.Errorf("block %d %s: err = %v, want ErrCorruptFile naming %s", i, path, err, c.Path())
				return
			}
			named := false
			for _, j := range hit {
				named = named || strings.Contains(err.Error(), fmt.Sprintf("block %d:", j))
			}
			if !named {
				t.Errorf("block %d %s: err = %v names none of the misplaced blocks %v", i, path, err, hit)
			}
		}
		mc, err := c.Window(cover)
		var got []int64
		if err == nil {
			got = mc.Decompress(nil)
		}
		check("Window", got, want, err)
		got, err = c.GatherAt(positions.NewRanges(cover), nil)
		check("GatherAt", got, want, err)
		got, err = c.GatherUnordered(probe, nil)
		check("GatherUnordered", got, []int64{vals[probe[0]], vals[probe[1]], vals[probe[2]]}, err)
		v, err := c.ValueAt(probe[2])
		// ValueAt over bit-vectors stops at the first value whose bit is set,
		// so it may legitimately answer without touching a later value's
		// misplaced block.
		if c.Encoding() == encoding.BitVector && err == nil && v == vals[probe[2]] {
			continue
		}
		check("ValueAt", []int64{v}, []int64{vals[probe[2]]}, err)
	}
}

// TestMisplacedBlockNotCached: a rejected block must not enter the pool, or
// the second read of it would be served without the check.
func TestMisplacedBlockNotCached(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.col")
	vals := make([]int64, 2*encoding.PlainBlockCap)
	writeColumn(t, path, encoding.Plain, vals)
	raw, _ := os.ReadFile(path)
	copy(rawBlock(raw, 1), rawBlock(raw, 0))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path, buffer.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for try := 0; try < 2; try++ {
		if _, err := c.ValueAt(int64(encoding.PlainBlockCap)); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("read %d of the duplicated block: err = %v", try, err)
		}
	}
}

// TestOpenRejectsUntiledIndex: the footer index is what every reader advances
// through, assuming its entries tile [0, tuples) — once for a plain or RLE
// column, once per distinct value for a bit-vector column. An index whose
// second entry overlaps the first, leaves a gap after it, or whose last entry
// stops short of the header's tuple count must be refused at Open, with
// ErrCorruptFile naming the file and the entry, before any gather walks it.
func TestOpenRejectsUntiledIndex(t *testing.T) {
	for _, tc := range []struct {
		enc  encoding.Kind
		n    int
		last int // the last index entry of the first tiling
	}{
		{encoding.Plain, 3 * encoding.PlainBlockCap, 2},
		{encoding.RLE, 3 * encoding.RLEBlockCap, 2},
		{encoding.BitVector, encoding.BVBlockBits + 70000, 1}, // value 0's two blocks
	} {
		vals := make([]int64, tc.n)
		for i := range vals {
			vals[i] = int64(i % 2)
		}
		for _, damage := range []struct {
			name         string
			entry, field int   // footer entry and byte offset of the bound to move
			by           int64 // how far
		}{
			{"overlap", 1, 0, -1},
			{"gap", 1, 0, +1},
			{"short", tc.last, 8, -1},
		} {
			t.Run(fmt.Sprintf("%v/%s", tc.enc, damage.name), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "c.col")
				writeColumn(t, path, tc.enc, vals)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				bound := raw[int(binary.LittleEndian.Uint64(raw[64:]))+damage.entry*footerEntrySize+damage.field:]
				binary.LittleEndian.PutUint64(bound, uint64(int64(binary.LittleEndian.Uint64(bound))+damage.by))
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				c, err := Open(path, buffer.New(0))
				if err == nil {
					c.Close()
					t.Fatal("Open accepted the index")
				}
				if want := fmt.Sprintf("block %d:", damage.entry); !errors.Is(err, ErrCorruptFile) ||
					!strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want ErrCorruptFile naming %s and %q", err, path, want)
				}
			})
		}
	}
}

// Path returns the file path.
func (c *Column) Path() string { return c.path }
