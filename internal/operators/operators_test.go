package operators

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/oracle"
	"matstore/internal/positions"
	"matstore/internal/pred"
	"matstore/internal/storage"
)

func TestSPCChunk(t *testing.T) {
	cols := [][]int64{
		{1, 2, 3, 4, 5},      // col 0
		{10, 20, 30, 40, 50}, // col 1
	}
	spc := CompileSPC( // output schema: col1 then col0
		[]IndexedPred{{Col: 0, Pred: pred.AtLeast(2)}, {Col: 1, Pred: pred.LessThan(50)}},
		[]int{1, 0})
	n := spc.Chunk(cols)
	if n != 3 {
		t.Fatalf("constructed = %d", n)
	}
	dst := [][]int64{make([]int64, n), make([]int64, n)}
	spc.Construct(cols, dst)
	if !reflect.DeepEqual(dst[0], []int64{20, 30, 40}) {
		t.Errorf("dst[0] = %v", dst[0])
	}
	if !reflect.DeepEqual(dst[1], []int64{2, 3, 4}) {
		t.Errorf("dst[1] = %v", dst[1])
	}
	// Without a filter every row survives.
	all := CompileSPC(nil, []int{1, 0})
	one := [][]int64{{9}, {10}}
	if n := all.Chunk(one); n != 1 {
		t.Fatalf("filterless leaf kept %d of 1 rows", n)
	}
	all.Construct(one, dst)
	if dst[0][0] != 10 || dst[1][0] != 9 {
		t.Errorf("filterless leaf constructed %v", dst)
	}
}

func TestSPCChunkShortCircuit(t *testing.T) {
	cols := [][]int64{{1, 1}, {5, 5}}
	if n := CompileSPC([]IndexedPred{{Col: 0, Pred: pred.Equals(99)}}, []int{0}).Chunk(cols); n != 0 {
		t.Error("rows leaked through failing predicate")
	}
	if CompileSPC(nil, nil).Chunk(nil) != 0 {
		t.Error("empty input mishandled")
	}
}

func TestSumAggregatorTupleAndRunAgree(t *testing.T) {
	a := NewSumAggregator()
	a.AddTuple(1, 10)
	a.AddTuple(1, 5)
	a.AddTuple(2, 7)
	a.AddBatch([]int64{2, 3}, []int64{3, 100})

	b := NewSumAggregator()
	b.AddRun(1, encoding.RunStats{Sum: 15, Count: 2, Min: 5, Max: 10})
	b.AddRun(2, encoding.RunStats{Sum: 10, Count: 2, Min: 3, Max: 7})
	b.AddRun(3, encoding.RunStats{Sum: 100, Count: 1, Min: 100, Max: 100})

	ra := a.Emit("k", "s")
	rb := b.Emit("k", "s")
	if !reflect.DeepEqual(oracle.Columns(ra), oracle.Columns(rb)) {
		t.Errorf("tuple-wise %v vs run-wise %v", oracle.Columns(ra), oracle.Columns(rb))
	}
	if a.TuplesIn != 5 || b.TuplesIn != 0 {
		t.Errorf("counters: tuples=%d, run-wise %d", a.TuplesIn, b.TuplesIn)
	}
	if a.Groups() != 3 {
		t.Errorf("Groups = %d", a.Groups())
	}
	// Emit is sorted by key.
	k, _ := ra.Col("k")
	if !reflect.DeepEqual(k, []int64{1, 2, 3}) {
		t.Errorf("keys = %v", k)
	}
}

// TestAggregateCompressedChunkAllKeyEncodings verifies aggregation directly
// on compressed data matches a naive recompute for every (key, value)
// encoding pair, under a descriptor of ranges, a bit-string and a list.
func TestAggregateCompressedChunkAllKeyEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 600
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i / 97) // sorted key with runs
		vals[i] = int64(rng.Intn(100))
	}
	bits := positions.NewBitmap(0, int64(n))
	var list positions.List
	for p := int64(0); p < int64(n); p++ {
		if rng.Intn(2) == 0 {
			bits.Set(p)
		}
		if p%7 == 3 {
			list = append(list, p)
		}
	}
	keyMinis := []encoding.MiniColumn{
		encoding.PlainMiniFromValues(0, keys),
		encoding.RLEMiniFromValues(0, keys),
		encoding.BVMiniFromValues(0, keys),
	}
	valMinis := []encoding.MiniColumn{
		encoding.PlainMiniFromValues(0, vals),
		encoding.RLEMiniFromValues(0, vals),
		encoding.BVMiniFromValues(0, vals),
	}
	for _, desc := range []positions.Set{
		positions.NewRanges(positions.Range{Start: 50, End: 300}, positions.Range{Start: 400, End: 550}),
		bits,
		list,
	} {
		want := map[int64]int64{}
		for i := 0; i < n; i++ {
			if desc.Contains(int64(i)) {
				want[keys[i]] += vals[i]
			}
		}
		for _, km := range keyMinis {
			for _, vm := range valMinis {
				a := NewSumAggregator()
				AggregateCompressedChunk(a, km, vm, desc)
				if a.Groups() != len(want) {
					t.Fatalf("%v key=%v val=%v: groups %d, want %d", desc.Kind(), km.Kind(), vm.Kind(), a.Groups(), len(want))
				}
				res := a.Emit("k", "s")
				k, _ := res.Col("k")
				s, _ := res.Col("s")
				for i := range k {
					if want[k[i]] != s[i] {
						t.Fatalf("%v key=%v val=%v: group %d sum %d, want %d",
							desc.Kind(), km.Kind(), vm.Kind(), k[i], s[i], want[k[i]])
					}
				}
			}
		}
	}
}

func TestAggregateCompressedChunkEmptyDesc(t *testing.T) {
	a := NewSumAggregator()
	km := encoding.RLEMiniFromValues(0, []int64{1, 1, 2, 2})
	vm := encoding.PlainMiniFromValues(0, []int64{1, 2, 3, 4})
	AggregateCompressedChunk(a, km, vm, positions.Empty{})
	if a.Groups() != 0 {
		t.Errorf("Groups = %d", a.Groups())
	}
}

// joinFixture builds tiny left/right projections for join unit tests.
func joinFixture(t *testing.T) (left, right *storage.Projection) {
	t.Helper()
	pool := buffer.New(0)
	ldir := filepath.Join(t.TempDir(), "left")
	lw, err := storage.NewProjectionWriter(ldir, "left", nil, []storage.ColumnSpec{
		{Name: "k", Encoding: encoding.Plain},
		{Name: "payload", Encoding: encoding.Plain},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Left: keys with duplicates and misses.
	for i, k := range []int64{0, 2, 2, 5, 9, 1} {
		if err := lw.AppendRow(k, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	rdir := filepath.Join(t.TempDir(), "right")
	rw, err := storage.NewProjectionWriter(rdir, "right", nil, []storage.ColumnSpec{
		{Name: "k", Encoding: encoding.Plain},
		{Name: "val", Encoding: encoding.Plain},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Right: keys 0..3, with key 2 duplicated.
	for i, k := range []int64{0, 1, 2, 2, 3} {
		if err := rw.AppendRow(k, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	lp, err := storage.OpenProjection(ldir, pool)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := storage.OpenProjection(rdir, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lp.Close(); rp.Close() })
	return lp, rp
}

// probeJoin joins the fixture through the operators' own surface — the radix
// build, the batched probe and each strategy's payload accessor — and holds
// the result to the nested-loop oracle: the outer payload and the inner val
// of every (left row passing keep) x (right row with its key), in order.
func probeJoin(t *testing.T, rs RightStrategy, keep pred.Predicate) (leftOut, rightOut []int64) {
	t.Helper()
	left, right := joinFixture(t)
	leftKey, _ := left.Column("k")
	leftPayload, _ := left.Column("payload")
	rightKey, _ := right.Column("k")
	rightVal, _ := right.Column("val")
	rt, err := BuildPartitioned(rightKey, []*storage.Column{rightVal}, []string{"val"}, rs, 64, 1, 0)
	if err != nil {
		t.Fatalf("%v: %v", rs, err)
	}
	if want := map[RightStrategy]int64{RightMaterialized: 5}[rs]; rt.BuildTuples != want {
		t.Errorf("%v: BuildTuples = %d, want %d", rs, rt.BuildTuples, want)
	}
	keyMini, err := leftKey.Window(leftKey.Extent())
	if err != nil {
		t.Fatal(err)
	}
	payloadMini, err := leftPayload.Window(leftPayload.Extent())
	if err != nil {
		t.Fatal(err)
	}
	var keys, payload []int64
	for i, k := range keyMini.Decompress(nil) {
		if keep.Match(k) {
			keys, payload = append(keys, k), append(payload, payloadMini.ValueAt(int64(i)))
		}
	}
	idx, pos := rt.ProbeBatch(keys, nil, nil)
	for j, i := range idx {
		leftOut = append(leftOut, payload[i])
		switch rs {
		case RightMaterialized:
			rightOut = append(rightOut, rt.DenseValue(0, pos[j]))
		case RightMultiColumn:
			rightOut = append(rightOut, rt.PayloadMinis(pos[j])[0].ValueAt(pos[j]))
		}
	}
	if rs == RightSingleColumn {
		if rightOut, err = rt.DeferredCol(0).GatherUnordered(pos, nil); err != nil {
			t.Fatal(err)
		}
	}
	want, probes, err := oracle.NestedLoopJoin(leftKey, keep, []*storage.Column{leftPayload}, rightKey, []*storage.Column{rightVal})
	if err != nil {
		t.Fatal(err)
	}
	if int(probes) != len(keys) || !slices.Equal(leftOut, want[0]) || !slices.Equal(rightOut, want[1]) {
		t.Errorf("%v: got %v/%v from %d probes, oracle %v/%v from %d", rs, leftOut, rightOut, len(keys), want[0], want[1], probes)
	}
	return leftOut, rightOut
}

func TestHashJoinAllRightStrategies(t *testing.T) {
	// Expected: left rows with key 0,2,2,1 match; key 2 matches two right rows.
	wantLeft := []int64{100, 101, 101, 102, 102, 105}
	wantRight := []int64{1000, 1002, 1003, 1002, 1003, 1001}
	for _, rs := range []RightStrategy{RightMaterialized, RightMultiColumn, RightSingleColumn} {
		gotLeft, gotRight := probeJoin(t, rs, pred.MatchAll)
		if !reflect.DeepEqual(gotLeft, wantLeft) || !reflect.DeepEqual(gotRight, wantRight) {
			t.Errorf("%v: got %v/%v, want %v/%v", rs, gotLeft, gotRight, wantLeft, wantRight)
		}
	}
}

func TestHashJoinLeftPredicate(t *testing.T) {
	// Keys 0 and 1 only.
	if left, _ := probeJoin(t, RightMaterialized, pred.LessThan(2)); len(left) != 2 {
		t.Errorf("rows = %d, want 2", len(left))
	}
}

func TestHashJoinEmptyLeft(t *testing.T) {
	if left, _ := probeJoin(t, RightMultiColumn, pred.Predicate{Op: pred.None}); len(left) != 0 {
		t.Errorf("rows = %d", len(left))
	}
}

func TestRightStrategyString(t *testing.T) {
	for rs, want := range map[RightStrategy]string{
		RightMaterialized: "right-materialized",
		RightMultiColumn:  "right-multicolumn",
		RightSingleColumn: "right-singlecolumn",
	} {
		if rs.String() != want {
			t.Errorf("%d.String() = %q", rs, rs.String())
		}
	}
}

// PayloadMinis returns the retained compressed mini-columns of the chunk
// holding a right position (RightMultiColumn only): the per-match lookup the
// tests hold GatherMinis and the probe to.
func (rt *PartitionedTable) PayloadMinis(pos int64) []encoding.MiniColumn {
	return rt.chunks[pos/rt.chunkSize]
}

// AddTuple contributes one constructed tuple.
func (a *Aggregator) AddTuple(key, val int64) {
	a.add(key, encoding.RunStats{Sum: val, Count: 1, Min: val, Max: val})
	a.TuplesIn++
}

// NewSumAggregator returns an empty SUM aggregator.
func NewSumAggregator() *Aggregator { return NewAggregator(AggSum) }
