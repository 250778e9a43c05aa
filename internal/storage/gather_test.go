package storage

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"matstore/internal/encoding"
	"matstore/internal/positions"
)

// gatherColumns opens one column per encoding over the same logical values,
// sized to span multiple blocks (including multiple bit-vector blocks:
// 600000 > BVBlockBits).
func gatherColumns(t *testing.T) (map[encoding.Kind]*Column, []int64) {
	t.Helper()
	const n = 600000
	rng := rand.New(rand.NewSource(17))
	vals := make([]int64, n)
	run := int64(0)
	for i := range vals {
		if run == 0 {
			run = 1 + rng.Int63n(9)
		}
		if i > 0 {
			vals[i] = vals[i-1]
		}
		run--
		if run == 0 {
			vals[i] = rng.Int63n(7)
		}
	}
	dir := t.TempDir()
	cols := make(map[encoding.Kind]*Column)
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		path := filepath.Join(dir, enc.String()+".col")
		writeColumn(t, path, enc, vals)
		cols[enc] = openColumn(t, path)
	}
	return cols, vals
}

// gatherSets builds position sets in every representation and density class,
// including runs that straddle block boundaries of all three encodings and
// bit-strings that start and end inside a block.
func gatherSets(n int64) map[string]positions.Set {
	rng := rand.New(rand.NewSource(18))
	sparse := positions.List{}
	for p := int64(13); p < n; p += 7919 {
		sparse = append(sparse, p)
	}
	var runs positions.Ranges
	for p := int64(0); p+900 < n; p += 70000 {
		runs = append(runs, positions.Range{Start: p, End: p + 900})
	}
	// Runs crossing plain (8188), RLE and BV (523,...) block boundaries.
	edges := positions.NewRanges(
		positions.Range{Start: encoding.PlainBlockCap - 5, End: encoding.PlainBlockCap + 5},
		positions.Range{Start: 3*encoding.PlainBlockCap - 1, End: 3*encoding.PlainBlockCap + 2},
		positions.Range{Start: encoding.BVBlockBits - 70, End: encoding.BVBlockBits + 70},
		positions.Range{Start: n - 3, End: n},
	)
	bm := positions.NewBitmap(0, n)
	for i := 0; i < 5000; i++ {
		bm.Set(rng.Int63n(n))
	}
	// randomBits sets about half the bits of a bit-string over [start, end).
	randomBits := func(start, end int64) *positions.Bitmap {
		bm := positions.NewBitmap(start, end-start)
		for p := start; p < end; p++ {
			if rng.Intn(2) == 0 {
				bm.Set(p)
			}
		}
		return bm
	}
	long := positions.List{}
	for p := int64(5); p < n; p += 1 + rng.Int63n(4) {
		long = append(long, p)
	}
	return map[string]positions.Set{
		"empty":  positions.Empty{},
		"single": positions.List{n / 2},
		"sparse": sparse,
		"runs":   runs,
		"edges":  edges,
		"bitmap": bm,
		"full":   positions.NewRanges(positions.Range{Start: 0, End: n}),
		// What a filter over unsorted data hands the gather: runs two long.
		"dense-bitmap": randomBits(0, n),
		// A descriptor reaching past the column's last position, bits set there.
		"clipped-bitmap": randomBits((n-2000)&^63, n+500),
		// One chunk's descriptor over the tail of a plain block, the whole of
		// the next and the head of a third (255*64 = 2*8188-56).
		"three-blocks": randomBits(255*64, 255*64+8188+300),
		"long-list":    long,
	}
}

// TestDifferentialGatherAt: the batched block-pinned gather must agree with
// the retained per-position ValueAt reference for every encoding × position
// set shape.
func TestDifferentialGatherAt(t *testing.T) {
	cols, vals := gatherColumns(t)
	sets := gatherSets(int64(len(vals)))
	for enc, c := range cols {
		for name, ps := range sets {
			got, err := c.GatherAt(ps, nil)
			if err != nil {
				t.Fatalf("%v/%s: %v", enc, name, err)
			}
			// Every position checks against the generator's ground truth;
			// the retained per-position ValueAt reference is cross-checked
			// on a sample (it is orders of magnitude slower under -race).
			i := 0
			it := ps.Runs()
			for {
				r, ok := it.Next()
				if !ok {
					break
				}
				for p := r.Start; p < min(r.End, int64(len(vals))); p++ {
					if i == len(got) {
						t.Fatalf("%v/%s: gather stops after %d values, before pos %d", enc, name, i, p)
					}
					if got[i] != vals[p] {
						t.Fatalf("%v/%s: pos %d: gather %d, want %d", enc, name, p, got[i], vals[p])
					}
					if i%101 == 0 {
						want, err := c.ValueAt(p)
						if err != nil {
							t.Fatal(err)
						}
						if got[i] != want {
							t.Fatalf("%v/%s: pos %d: gather %d, ValueAt %d", enc, name, p, got[i], want)
						}
					}
					i++
				}
			}
			if i != len(got) {
				t.Fatalf("%v/%s: got %d values, want %d", enc, name, len(got), i)
			}
		}
	}
}

// TestDifferentialGatherUnordered: arbitrary shuffled, repeated positions
// must come back in input order, equal to per-position ValueAt.
func TestDifferentialGatherUnordered(t *testing.T) {
	cols, vals := gatherColumns(t)
	rng := rand.New(rand.NewSource(19))
	sparse := make([]int64, 4000) // spread ≫ 8×len: sorted-dedup path
	for i := range sparse {
		if i%5 == 0 && i > 0 {
			sparse[i] = sparse[i-1] // repeats, as join probes produce
		} else {
			sparse[i] = rng.Int63n(int64(len(vals)))
		}
	}
	dense := make([]int64, 4000) // bounded span: covering-window path
	base := int64(len(vals)) / 2
	for i := range dense {
		dense[i] = base + rng.Int63n(9000)
	}
	for name, ps := range map[string][]int64{"sparse": sparse, "dense": dense, "one": {7}} {
		for enc, c := range cols {
			got, err := c.GatherUnordered(ps, nil)
			if err != nil {
				t.Fatalf("%v/%s: %v", enc, name, err)
			}
			if len(got) != len(ps) {
				t.Fatalf("%v/%s: got %d values, want %d", enc, name, len(got), len(ps))
			}
			for i, p := range ps {
				if got[i] != vals[p] {
					t.Fatalf("%v/%s: ps[%d]=%d: gather %d, want %d", enc, name, i, p, got[i], vals[p])
				}
			}
			// In place, as the join's deferred fetch calls it: the values
			// overwrite the positions they were fetched at.
			inPlace := slices.Clone(ps)
			if inPlace, err = c.GatherUnordered(inPlace, inPlace[:0]); err != nil || !slices.Equal(inPlace, got) {
				t.Fatalf("%v/%s: in-place gather differs (err %v)", enc, name, err)
			}
		}
	}
	// Out-of-range positions must be rejected, like ValueAt.
	for enc, c := range cols {
		if _, err := c.GatherUnordered([]int64{0, int64(len(vals))}, nil); err == nil {
			t.Fatalf("%v: out-of-range position accepted", enc)
		}
		if _, err := c.GatherUnordered([]int64{-1}, nil); err == nil {
			t.Fatalf("%v: negative position accepted", enc)
		}
	}
}

// FuzzGatherAgainstValueAt holds both gathers — the block-pinned GatherAt over
// a stored column and Extract over a window of it — to the per-position
// ValueAt reference, for all three encodings, on descriptors the fuzzer
// shapes: a bit-string (any word contents, any length, reaching past the
// column's end), a list (any gaps) or ranges (any lengths and gaps), starting
// anywhere. The column is three plain blocks and a bit long, in short runs.
func FuzzGatherAgainstValueAt(f *testing.F) {
	const n = 3*encoding.PlainBlockCap + 1000
	rng := rand.New(rand.NewSource(21))
	vals := make([]int64, n)
	for i := 1; i < n; i++ {
		if vals[i] = vals[i-1]; rng.Intn(3) == 0 {
			vals[i] = rng.Int63n(7)
		}
	}
	dir := f.TempDir()
	var cols []*Column
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		path := filepath.Join(dir, enc.String()+".col")
		writeColumn(f, path, enc, vals)
		cols = append(cols, openColumn(f, path))
	}
	f.Add(uint8(0), uint32(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x55})
	f.Add(uint8(0), uint32(8100), []byte("a descriptor over the first block boundary, 8188, is what this seed is"))
	f.Add(uint8(0), uint32(n-30), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(1), uint32(8180), []byte{0, 0, 0, 5, 0, 0, 200, 1, 0})
	f.Add(uint8(2), uint32(16000), []byte{0, 200, 0, 255, 3, 1, 0, 1, 0, 90})
	f.Fuzz(func(t *testing.T, kind uint8, start uint32, data []byte) {
		at := int64(start) % (n + 100)
		var ps positions.Set
		switch kind % 3 {
		case 0: // bit-string: data is its bits, the last few cut off
			bm := positions.NewBitmap(at&^63, max(8*int64(len(data))-int64(kind>>2), 0))
			for i := int64(0); i < bm.NBits(); i++ {
				if data[i/8]>>uint(i%8)&1 == 1 {
					bm.Set(bm.Start() + i)
				}
			}
			ps = bm
		case 1: // list: data is the gaps between positions, less one
			l := positions.List{}
			for _, gap := range data {
				l = append(l, at)
				at += 1 + int64(gap)
			}
			ps = l
		default: // ranges: data is (length less one, gap less one) pairs
			var rs positions.Ranges
			for i := 0; i+1 < len(data); i += 2 {
				rs = append(rs, positions.Range{Start: at, End: at + 1 + int64(data[i])})
				at += 2 + int64(data[i]) + int64(data[i+1])
			}
			ps = rs
		}
		members := positions.Slice(ps)
		window := positions.Range{Start: (int64(start) % n) &^ 63, End: min((int64(start)%n)&^63+8192, n)}
		for _, c := range cols {
			var want, wantIn []int64
			for _, p := range members {
				if p >= n {
					break
				}
				v, err := c.ValueAt(p)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, v)
				if window.Contains(p) {
					wantIn = append(wantIn, v)
				}
			}
			got, err := c.GatherAt(ps, nil)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%v GatherAt: %d values, ValueAt gives %d (or values differ; err %v)", c.Encoding(), len(got), len(want), err)
			}
			mc, err := c.Window(window)
			if err != nil {
				t.Fatal(err)
			}
			if got := mc.Extract(nil, ps); !slices.Equal(got, wantIn) {
				t.Fatalf("%v Extract over %v: %d values, ValueAt gives %d (or values differ)", c.Encoding(), window, len(got), len(wantIn))
			}
		}
	})
}

// TestBVValueAtMultiBlock is the regression test for the bit-vector ValueAt
// lookup: with > BVBlockBits tuples each distinct value's bit-string spans
// several blocks, and the lookup must consult only the block whose cover
// contains the position (binary search per value's block list) yet still
// return the right value on both sides of every block boundary.
func TestBVValueAtMultiBlock(t *testing.T) {
	const n = encoding.BVBlockBits + 12345 // two blocks per distinct value
	vals := make([]int64, n)
	rng := rand.New(rand.NewSource(20))
	for i := range vals {
		vals[i] = rng.Int63n(5)
	}
	path := filepath.Join(t.TempDir(), "bv.col")
	writeColumn(t, path, encoding.BitVector, vals)
	c := openColumn(t, path)
	if c.NumBlocks() < 10 { // 5 distinct values × 2 blocks each
		t.Fatalf("want a multi-block BV column, got %d blocks", c.NumBlocks())
	}
	checks := []int64{0, 1, encoding.BVBlockBits - 1, encoding.BVBlockBits, encoding.BVBlockBits + 1, n - 1}
	for i := 0; i < 200; i++ {
		checks = append(checks, rng.Int63n(n))
	}
	for _, pos := range checks {
		got, err := c.ValueAt(pos)
		if err != nil {
			t.Fatal(err)
		}
		if got != vals[pos] {
			t.Fatalf("ValueAt(%d) = %d, want %d", pos, got, vals[pos])
		}
	}
}
