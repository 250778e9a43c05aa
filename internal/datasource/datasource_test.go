package datasource

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/positions"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
)

func writeColumn(t testing.TB, enc encoding.Kind, vals []int64) (*storage.Column, *buffer.Pool) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.col")
	w, err := storage.NewColumnWriter(path, enc)
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
	pool := buffer.New(0)
	c, err := storage.Open(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, pool
}

func sortedVals(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i / 10)
	}
	return vals
}

func TestChunker(t *testing.T) {
	ch := NewChunker(positions.Range{Start: 0, End: 1000}, 256)
	if ch.NumChunks() != 4 {
		t.Fatalf("NumChunks = %d", ch.NumChunks())
	}
	if ch.Chunk(0) != (positions.Range{Start: 0, End: 256}) {
		t.Errorf("Chunk(0) = %v", ch.Chunk(0))
	}
	if ch.Chunk(3) != (positions.Range{Start: 768, End: 1000}) {
		t.Errorf("Chunk(3) = %v (must clip at extent)", ch.Chunk(3))
	}
	if NewChunker(positions.Range{}, 64).NumChunks() != 0 {
		t.Error("empty extent should have no chunks")
	}
}

func TestChunkerAlignmentPanics(t *testing.T) {
	for _, size := range []int64{0, -64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("chunk size %d accepted", size)
				}
			}()
			NewChunker(positions.Range{Start: 0, End: 10}, size)
		}()
	}
}

func TestDS1ScanChunk(t *testing.T) {
	vals := sortedVals(1000)
	col, _ := writeColumn(t, encoding.RLE, vals)
	ds := NewDS1(col, pred.CompileConj([]pred.Predicate{pred.LessThan(5)})) // values 0..4: positions 0..49
	ps, mc, err := ds.ScanChunk(positions.Range{Start: 0, End: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !positions.Equal(ps, positions.NewRanges(positions.Range{Start: 0, End: 50})) {
		t.Errorf("positions = %v", positions.Slice(ps))
	}
	if mc.Covering() != (positions.Range{Start: 0, End: 512}) {
		t.Errorf("mini covers %v", mc.Covering())
	}
}

func TestDS2ProducesPosValPairs(t *testing.T) {
	vals := []int64{9, 1, 8, 2, 7, 3}
	col, _ := writeColumn(t, encoding.Plain, vals)
	ds := NewDS2(col, pred.CompileConj([]pred.Predicate{pred.LessThan(5)}))
	batch := rows.NewBatch("v")
	batch.Append(99, 99) // a recycled batch: ScanChunk must clear what it held
	if err := ds.ScanChunk(positions.Range{Start: 0, End: 64}, batch); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Pos, []int64{1, 3, 5}) {
		t.Errorf("Pos = %v", batch.Pos)
	}
	v, _ := batch.Col("v")
	if !reflect.DeepEqual(v, []int64{1, 2, 3}) {
		t.Errorf("vals = %v", v)
	}
}

func TestDS3FromMiniAndReaccessAgree(t *testing.T) {
	vals := sortedVals(2000)
	col, pool := writeColumn(t, encoding.RLE, vals)
	r := positions.Range{Start: 0, End: 1024}
	mc, err := col.Window(r)
	if err != nil {
		t.Fatal(err)
	}
	ps := positions.NewRanges(positions.Range{Start: 100, End: 150}, positions.Range{Start: 900, End: 910})
	fromMini := mc.Extract(nil, ps)
	pool.ResetStats()
	reaccess, err := DS3{Col: col}.ValuesReaccess(r, ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromMini, reaccess) {
		t.Error("mini and re-access extraction disagree")
	}
	// Re-access must be served by the buffer pool (no disk reads).
	if s := pool.Stats(); s.Reads != 0 || s.Hits == 0 {
		t.Errorf("re-access stats = %+v, want pure hits", s)
	}
	if len(fromMini) != 60 {
		t.Errorf("extracted %d values", len(fromMini))
	}
}

func TestDS4ExtendChunk(t *testing.T) {
	vals := []int64{10, 20, 30, 40, 50}
	col, _ := writeColumn(t, encoding.Plain, vals)
	mc, err := col.Window(col.Extent())
	if err != nil {
		t.Fatal(err)
	}
	in := rows.NewBatch("a")
	in.Append(0, 100)
	in.Append(2, 300)
	in.Append(4, 500)
	ds := NewDS4(col, pred.CompileConj([]pred.Predicate{pred.LessThan(50)})) // drops position 4 (value 50)
	out := ds.ExtendChunk(mc, in, "b")
	if !reflect.DeepEqual(out.Pos, []int64{0, 2}) {
		t.Errorf("Pos = %v", out.Pos)
	}
	a, _ := out.Col("a")
	b, _ := out.Col("b")
	if !reflect.DeepEqual(a, []int64{100, 300}) || !reflect.DeepEqual(b, []int64{10, 30}) {
		t.Errorf("cols = %v / %v", a, b)
	}
	if !reflect.DeepEqual(out.Names, []string{"a", "b"}) {
		t.Errorf("Names = %v", out.Names)
	}
}

func TestDS4EmptyInput(t *testing.T) {
	col, _ := writeColumn(t, encoding.Plain, []int64{1, 2, 3})
	mc, _ := col.Window(col.Extent())
	ds := NewDS4(col, pred.CompileConj(nil))
	out := ds.ExtendChunk(mc, rows.NewBatch("a"), "b")
	if out.Len() != 0 {
		t.Errorf("Len = %d", out.Len())
	}
}

// TestDS1AcrossChunksCoversColumn verifies chunked DS1 output over every
// encoding equals a whole-column filter.
func TestDS1AcrossChunksCoversColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(7))
	}
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector} {
		col, _ := writeColumn(t, enc, vals)
		ds := NewDS1(col, pred.CompileConj([]pred.Predicate{pred.Equals(3)}))
		ch := NewChunker(col.Extent(), 512)
		var got []int64
		for i := 0; i < ch.NumChunks(); i++ {
			ps, _, err := ds.ScanChunk(ch.Chunk(i))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, positions.Slice(ps)...)
		}
		var want []int64
		for i, v := range vals {
			if v == 3 {
				want = append(want, int64(i))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: chunked DS1 differs from naive (%d vs %d matches)", enc, len(got), len(want))
		}
	}
}
