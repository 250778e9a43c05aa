package storage

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/positions"
	"matstore/internal/pred"
)

func writeColumn(t testing.TB, path string, enc encoding.Kind, vals []int64) {
	t.Helper()
	w, err := NewColumnWriter(path, enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func openColumn(t testing.TB, path string) *Column {
	t.Helper()
	c, err := Open(path, buffer.New(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func genVals(n, distinct int, sorted bool, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(distinct))
	}
	if sorted {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
	}
	return vals
}

func TestColumnRoundTripAllEncodings(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  encoding.Kind
		vals []int64
	}{
		{"plain-small", encoding.Plain, []int64{5, -1, 7, 7, 0}},
		{"plain-multiblock", encoding.Plain, genVals(3*encoding.PlainBlockCap+17, 1000, false, 1)},
		{"rle-small", encoding.RLE, []int64{3, 3, 3, 9, 9, 1}},
		{"rle-sorted-large", encoding.RLE, genVals(100000, 50, true, 2)},
		{"bv-small", encoding.BitVector, []int64{1, 2, 1, 3, 2, 2}},
		{"bv-large", encoding.BitVector, genVals(600000, 7, false, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.col")
			writeColumn(t, path, tc.enc, tc.vals)
			c := openColumn(t, path)
			if c.TupleCount() != int64(len(tc.vals)) {
				t.Fatalf("TupleCount = %d, want %d", c.TupleCount(), len(tc.vals))
			}
			if c.Encoding() != tc.enc {
				t.Fatalf("Encoding = %v", c.Encoding())
			}
			mc, err := c.Window(c.Extent())
			if err != nil {
				t.Fatal(err)
			}
			got := mc.Decompress(nil)
			if !reflect.DeepEqual(got, tc.vals) {
				t.Fatalf("decompressed values differ (len %d vs %d)", len(got), len(tc.vals))
			}
		})
	}
}

func TestColumnStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.col")
	writeColumn(t, path, encoding.RLE, []int64{2, 2, 2, 2, 5, 5, 9, 9})
	c := openColumn(t, path)
	lo, hi := c.MinMax()
	if lo != 2 || hi != 9 {
		t.Errorf("MinMax = %d,%d", lo, hi)
	}
	if c.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", c.Distinct())
	}
	if got := c.AvgRunLen(); got < 2.6 || got > 2.7 {
		t.Errorf("AvgRunLen = %v, want 8/3", got)
	}
}

func TestWindowPartialAndBlockSkipping(t *testing.T) {
	n := 2*encoding.PlainBlockCap + 500
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	path := filepath.Join(t.TempDir(), "c.col")
	writeColumn(t, path, encoding.Plain, vals)
	pool := buffer.New(0)
	c, err := Open(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3", c.NumBlocks())
	}
	// A window entirely inside block 1 must read exactly one block.
	start := int64(encoding.PlainBlockCap + 100)
	mc, err := c.Window(positions.Range{Start: start, End: start + 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Reads; got != 1 {
		t.Errorf("Reads = %d, want 1 (block skipping)", got)
	}
	got := mc.Decompress(nil)
	if int64(got[0]) != start || len(got) != 50 {
		t.Errorf("window values wrong: first=%d len=%d", got[0], len(got))
	}
	// Window past the end of the column clips.
	mc, err = c.Window(positions.Range{Start: int64(n) - 10, End: int64(n) + 100})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Covering().Len() != 10 {
		t.Errorf("clipped window covers %v", mc.Covering())
	}
}

func TestWindowSpansBlockBoundary(t *testing.T) {
	n := encoding.PlainBlockCap * 2
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	path := filepath.Join(t.TempDir(), "c.col")
	writeColumn(t, path, encoding.Plain, vals)
	c := openColumn(t, path)
	start := int64(encoding.PlainBlockCap - 64)
	mc, err := c.Window(positions.Range{Start: start, End: start + 128})
	if err != nil {
		t.Fatal(err)
	}
	got := mc.Decompress(nil)
	for i, v := range got {
		if v != vals[start+int64(i)] {
			t.Fatalf("value %d wrong across boundary", i)
		}
	}
	// Filter across the boundary.
	ps := mc.Filter(pred.Equals(vals[start+64]))
	if ps.Count() == 0 {
		t.Error("filter found nothing across boundary")
	}
}

func TestRLEWindowClipsRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.col")
	w, err := NewColumnWriter(path, encoding.RLE)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendRun(7, 1000) // one run spanning the window boundary
	w.AppendRun(9, 1000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c := openColumn(t, path)
	mc, err := c.Window(positions.Range{Start: 500, End: 1500})
	if err != nil {
		t.Fatal(err)
	}
	rle := mc.(*encoding.RLEMini)
	ts := rle.Triples()
	want := []encoding.Triple{{Value: 7, Start: 500, Len: 500}, {Value: 9, Start: 1000, Len: 500}}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("clipped triples = %v, want %v", ts, want)
	}
}

// TestRLEWindowAllocatesTriplesOnce: an RLE window counts the runs it clips
// out of its blocks before it copies any, so its triples are one array of
// exactly their number and the window's allocations do not grow with the
// blocks it spans (appended from nil, the triples regrew once per doubling).
func TestRLEWindowAllocatesTriplesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.col")
	w, err := NewColumnWriter(path, encoding.RLE)
	if err != nil {
		t.Fatal(err)
	}
	const runs, runLen = 10 * encoding.RLEBlockCap, 3
	for i := 0; i < runs; i++ {
		w.AppendRun(int64(i%5), runLen)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c := openColumn(t, path)
	var base float64
	for _, blocks := range []int64{1, 2, 8} {
		// A window that starts and ends inside a run, across the given number
		// of blocks.
		start := int64(encoding.RLEBlockCap*runLen) / 2
		r := positions.Range{Start: start + 1, End: start + (blocks-1)*encoding.RLEBlockCap*runLen + 100}
		mc, err := c.Window(r)
		if err != nil {
			t.Fatal(err)
		}
		ts := mc.(*encoding.RLEMini).Triples()
		if len(ts) != cap(ts) || ts[0].Start != r.Start || ts[len(ts)-1].End() != r.End {
			t.Errorf("%d blocks: %d triples in an array of %d, covering %d..%d of %v", blocks, len(ts), cap(ts), ts[0].Start, ts[len(ts)-1].End(), r)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := c.Window(r); err != nil {
				t.Fatal(err)
			}
		})
		if blocks == 1 {
			base = allocs
		} else if allocs != base {
			t.Errorf("a window over %d blocks allocates %v times, over one block %v", blocks, allocs, base)
		}
	}
}

func TestBVWindowAlignment(t *testing.T) {
	vals := genVals(1000, 5, false, 4)
	path := filepath.Join(t.TempDir(), "c.col")
	writeColumn(t, path, encoding.BitVector, vals)
	c := openColumn(t, path)
	if _, err := c.Window(positions.Range{Start: 10, End: 20}); err == nil {
		t.Error("unaligned BV window accepted")
	}
	mc, err := c.Window(positions.Range{Start: 64, End: 200})
	if err != nil {
		t.Fatal(err)
	}
	got := mc.Decompress(nil)
	if !reflect.DeepEqual(got, vals[64:200]) {
		t.Error("BV window values wrong")
	}
}

func TestValueAt(t *testing.T) {
	vals := genVals(50000, 7, true, 5)
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		path := filepath.Join(t.TempDir(), "c.col")
		writeColumn(t, path, enc, vals)
		c := openColumn(t, path)
		rng := rand.New(rand.NewSource(6))
		for k := 0; k < 100; k++ {
			pos := int64(rng.Intn(len(vals)))
			got, err := c.ValueAt(pos)
			if err != nil {
				t.Fatal(err)
			}
			if got != vals[pos] {
				t.Fatalf("%v ValueAt(%d) = %d, want %d", enc, pos, got, vals[pos])
			}
		}
		if _, err := c.ValueAt(int64(len(vals))); err == nil {
			t.Errorf("%v ValueAt out of range accepted", enc)
		}
		if _, err := c.ValueAt(-1); err == nil {
			t.Errorf("%v ValueAt(-1) accepted", enc)
		}
	}
}

func TestEmptyColumn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.col")
	writeColumn(t, path, encoding.Plain, nil)
	c := openColumn(t, path)
	if c.TupleCount() != 0 || c.NumBlocks() != 0 {
		t.Errorf("empty column: tuples=%d blocks=%d", c.TupleCount(), c.NumBlocks())
	}
	mc, err := c.Window(positions.Range{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !mc.Covering().Empty() {
		t.Errorf("empty column window covers %v", mc.Covering())
	}
}

func TestBVDistinctGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.col")
	w, err := NewColumnWriter(path, encoding.BitVector)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i <= MaxBVDistinct; i++ {
		if err := w.Append(int64(i)); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Error("bit-vector writer accepted too many distinct values")
	}
}

func TestOpenCorruptFile(t *testing.T) {
	dir := t.TempDir()
	// Garbage file.
	bad := filepath.Join(dir, "bad.col")
	os.WriteFile(bad, []byte("not a column file at all"), 0o644)
	if _, err := Open(bad, buffer.New(0)); err == nil {
		t.Error("opened garbage file")
	}
	// Truncated after header.
	path := filepath.Join(dir, "trunc.col")
	writeColumn(t, path, encoding.Plain, genVals(20000, 10, false, 7))
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:HeaderSize+100], 0o644)
	if _, err := Open(path, buffer.New(0)); err == nil {
		t.Error("opened truncated file")
	}
	// Corrupted block payload: open succeeds, block read fails.
	path2 := filepath.Join(dir, "corrupt.col")
	writeColumn(t, path2, encoding.Plain, genVals(20000, 10, false, 8))
	raw, _ = os.ReadFile(path2)
	raw[HeaderSize+encoding.BlockHeaderSize+3] ^= 0xff
	os.WriteFile(path2, raw, 0o644)
	c, err := Open(path2, buffer.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Window(c.Extent())
	if !errors.Is(err, encoding.ErrCorruptBlock) {
		t.Errorf("window over corrupt block: err = %v", err)
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "proj")
	pw, err := NewProjectionWriter(dir, "lineitem", []string{"retflag", "shipdate"}, []ColumnSpec{
		{Name: "retflag", Encoding: encoding.RLE},
		{Name: "shipdate", Encoding: encoding.RLE},
		{Name: "linenum", Encoding: encoding.Plain},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][3]int64{{1, 100, 3}, {1, 100, 5}, {1, 101, 2}, {2, 50, 7}}
	for _, r := range rows {
		if err := pw.AppendRow(r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := pw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if meta.TupleCount != 4 || len(meta.Columns) != 3 {
		t.Fatalf("meta = %+v", meta)
	}

	p, err := OpenProjection(dir, buffer.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.TupleCount() != 4 {
		t.Errorf("TupleCount = %d", p.TupleCount())
	}
	if !reflect.DeepEqual(p.ColumnNames(), []string{"retflag", "shipdate", "linenum"}) {
		t.Errorf("ColumnNames = %v", p.ColumnNames())
	}
	col, err := p.Column("linenum")
	if err != nil {
		t.Fatal(err)
	}
	mc, _ := col.Window(col.Extent())
	if got := mc.Decompress(nil); !reflect.DeepEqual(got, []int64{3, 5, 2, 7}) {
		t.Errorf("linenum = %v", got)
	}
	if _, err := p.Column("nope"); err == nil {
		t.Error("missing column lookup succeeded")
	}
}

func TestProjectionWriterErrors(t *testing.T) {
	if _, err := NewProjectionWriter(t.TempDir(), "x", nil, nil); err == nil {
		t.Error("empty spec accepted")
	}
	pw, err := NewProjectionWriter(filepath.Join(t.TempDir(), "p"), "x", nil,
		[]ColumnSpec{{Name: "a", Encoding: encoding.Plain}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.AppendRow(1, 2); err == nil {
		t.Error("wrong arity accepted")
	}
	pw.Close()
}

func TestDB(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"alpha", "beta"} {
		pw, err := NewProjectionWriter(filepath.Join(dir, name), name, nil,
			[]ColumnSpec{{Name: "a", Encoding: encoding.Plain}})
		if err != nil {
			t.Fatal(err)
		}
		pw.AppendRow(1)
		if _, err := pw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A stray non-projection directory must be ignored.
	os.MkdirAll(filepath.Join(dir, "junk"), 0o755)
	db, err := OpenDB(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.ProjectionNames(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Errorf("ProjectionNames = %v", got)
	}
	if _, err := db.Projection("alpha"); err != nil {
		t.Error(err)
	}
	if _, err := db.Projection("gamma"); err == nil {
		t.Error("missing projection lookup succeeded")
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.col")
	w, err := NewColumnWriter(path, encoding.Plain)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(1)
	w.Close()
	if err := w.Append(2); err == nil {
		t.Error("append after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestWindowMatchesSliceRandom is a property test: for random columns under
// every encoding, Window(r).Decompress must equal the corresponding slice of
// the source data, and filtering through the window must agree with a naive
// scan.
func TestWindowMatchesSliceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 12; iter++ {
		n := 1000 + rng.Intn(40000)
		vals := genVals(n, 1+rng.Intn(10), rng.Intn(2) == 0, int64(iter))
		enc := []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector}[iter%3]
		path := filepath.Join(t.TempDir(), "c.col")
		writeColumn(t, path, enc, vals)
		c := openColumn(t, path)
		for k := 0; k < 5; k++ {
			start := int64(rng.Intn(n)) &^ 63
			end := start + int64(rng.Intn(n-int(start)))
			mc, err := c.Window(positions.Range{Start: start, End: end})
			if err != nil {
				t.Fatal(err)
			}
			got := mc.Decompress(nil)
			want := vals[start:end]
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("iter %d %v: window [%d,%d) mismatch", iter, enc, start, end)
			}
			p := pred.LessThan(int64(rng.Intn(10)))
			ps := mc.Filter(p)
			var wantCount int64
			for _, v := range want {
				if p.Match(v) {
					wantCount++
				}
			}
			if ps.Count() != wantCount {
				t.Fatalf("iter %d %v: filter count %d, want %d", iter, enc, ps.Count(), wantCount)
			}
		}
	}
}

func TestSortedFlag(t *testing.T) {
	dir := t.TempDir()
	sorted := filepath.Join(dir, "s.col")
	writeColumn(t, sorted, encoding.Plain, []int64{1, 1, 2, 5, 5, 9})
	if c := openColumn(t, sorted); !c.Sorted() {
		t.Error("sorted column not flagged")
	}
	unsorted := filepath.Join(dir, "u.col")
	writeColumn(t, unsorted, encoding.Plain, []int64{1, 5, 2})
	if c := openColumn(t, unsorted); c.Sorted() {
		t.Error("unsorted column flagged sorted")
	}
}

func TestZoneMetadataInFooter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.col")
	vals := make([]int64, 2*encoding.PlainBlockCap)
	for i := range vals {
		vals[i] = int64(i)
	}
	writeColumn(t, path, encoding.Plain, vals)
	c := openColumn(t, path)
	if len(c.index) != 2 {
		t.Fatalf("blocks = %d", len(c.index))
	}
	if c.index[0].MinV != 0 || c.index[0].MaxV != int64(encoding.PlainBlockCap-1) {
		t.Errorf("block 0 zone = [%d,%d]", c.index[0].MinV, c.index[0].MaxV)
	}
	if c.index[1].MinV != int64(encoding.PlainBlockCap) {
		t.Errorf("block 1 zone min = %d", c.index[1].MinV)
	}
}

// Sorted reports whether the column's values are globally non-decreasing
// (e.g. the primary sort-key column of a projection).
func (c *Column) Sorted() bool { return c.hdr.sorted }
