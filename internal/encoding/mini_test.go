package encoding

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"matstore/internal/positions"
	"matstore/internal/pred"
)

func rangeOf(s, e int64) positions.Range { return positions.Range{Start: s, End: e} }

// minis builds all three encodings of the same logical column so that every
// test can assert cross-encoding agreement. start must be 64-aligned.
func minis(start int64, vals []int64) []MiniColumn {
	return []MiniColumn{
		PlainMiniFromValues(start, vals),
		RLEMiniFromValues(start, vals),
		BVMiniFromValues(start, vals),
	}
}

func TestMiniFilterAgreement(t *testing.T) {
	vals := []int64{5, 5, 5, 2, 2, 9, 9, 9, 9, 1, 5, 5}
	want := positions.NewRanges(rangeOf(64, 67), rangeOf(74, 76)) // values == 5
	for _, m := range minis(64, vals) {
		got := m.Filter(pred.Equals(5))
		if !positions.Equal(got, want) {
			t.Errorf("%v Filter(=5) = %v, want %v", m.Kind(), positions.Slice(got), positions.Slice(want))
		}
	}
}

func TestMiniFilterRangePred(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, m := range minis(0, vals) {
		got := m.Filter(pred.InRange(3, 6)) // 3,4,5 at positions 2,3,4
		if !positions.Equal(got, positions.NewRanges(rangeOf(2, 5))) {
			t.Errorf("%v Filter(between) = %v", m.Kind(), positions.Slice(got))
		}
	}
}

func TestMiniValueAt(t *testing.T) {
	vals := []int64{10, 20, 20, 30, 30, 30}
	for _, m := range minis(128, vals) {
		for i, v := range vals {
			if got := m.ValueAt(128 + int64(i)); got != v {
				t.Errorf("%v ValueAt(%d) = %d, want %d", m.Kind(), 128+i, got, v)
			}
		}
	}
}

func TestMiniExtract(t *testing.T) {
	vals := []int64{10, 20, 20, 30, 30, 30, 40, 50}
	ps := positions.NewRanges(rangeOf(1, 3), rangeOf(5, 7))
	want := []int64{20, 20, 30, 40}
	for _, m := range minis(0, vals) {
		got := m.Extract(nil, ps)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v Extract = %v, want %v", m.Kind(), got, want)
		}
	}
}

func TestMiniExtractEmpty(t *testing.T) {
	for _, m := range minis(0, []int64{1, 2, 3}) {
		if got := m.Extract(nil, positions.Empty{}); len(got) != 0 {
			t.Errorf("%v Extract(empty) = %v", m.Kind(), got)
		}
	}
}

func TestMiniDecompress(t *testing.T) {
	vals := []int64{7, 7, 8, 9, 9, 9}
	for _, m := range minis(64, vals) {
		got := m.Decompress(nil)
		if !reflect.DeepEqual(got, vals) {
			t.Errorf("%v Decompress = %v, want %v", m.Kind(), got, vals)
		}
	}
}

func TestMiniFilterAt(t *testing.T) {
	vals := []int64{1, 5, 5, 2, 5, 3, 5, 5}
	restrict := positions.NewRanges(rangeOf(0, 4), rangeOf(6, 7))
	// =5 within restrict: positions 1,2 and 6.
	want := positions.NewRanges(rangeOf(1, 3), rangeOf(6, 7))
	for _, m := range minis(0, vals) {
		got := m.FilterAt(restrict, pred.Equals(5))
		if !positions.Equal(got, want) {
			t.Errorf("%v FilterAt = %v, want %v", m.Kind(), positions.Slice(got), positions.Slice(want))
		}
	}
}

func TestMiniSumRange(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, m := range minis(0, vals) {
		if got := SumRange(m, rangeOf(2, 7)); got != 3+4+5+6+7 {
			t.Errorf("%v SumRange = %d, want 25", m.Kind(), got)
		}
		if got := SumRange(m, rangeOf(0, 10)); got != 55 {
			t.Errorf("%v SumRange(all) = %d, want 55", m.Kind(), got)
		}
		if got := SumRange(m, rangeOf(20, 30)); got != 0 {
			t.Errorf("%v SumRange(outside) = %d, want 0", m.Kind(), got)
		}
	}
}

func TestPlainMiniSegmented(t *testing.T) {
	m := NewPlainMini(rangeOf(0, 10))
	m.AddSegment(0, []int64{0, 1, 2, 3})
	m.AddSegment(4, []int64{4, 5, 6})
	m.AddSegment(7, []int64{7, 8, 9})
	for i := int64(0); i < 10; i++ {
		if m.ValueAt(i) != i {
			t.Fatalf("ValueAt(%d) = %d", i, m.ValueAt(i))
		}
	}
	// Extraction across segment boundaries.
	got := m.Extract(nil, positions.NewRanges(rangeOf(2, 9)))
	if !reflect.DeepEqual(got, []int64{2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("Extract across segments = %v", got)
	}
	// Filter across segment boundaries.
	ps := m.Filter(pred.AtLeast(3))
	if !positions.Equal(ps, positions.NewRanges(rangeOf(3, 10))) {
		t.Errorf("Filter across segments = %v", positions.Slice(ps))
	}
	if got := SumRange(m, rangeOf(3, 8)); got != 3+4+5+6+7 {
		t.Errorf("sumRange across segments = %d", got)
	}
}

func TestPlainMiniGapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on gapped segments")
		}
	}()
	m := NewPlainMini(rangeOf(0, 10))
	m.AddSegment(0, []int64{1})
	m.AddSegment(5, []int64{2})
}

func TestRLEMiniRunsExposed(t *testing.T) {
	m := RLEMiniFromValues(0, []int64{4, 4, 4, 4, 7, 7})
	ts := m.Triples()
	want := []Triple{{Value: 4, Start: 0, Len: 4}, {Value: 7, Start: 4, Len: 2}}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("Triples = %v", ts)
	}
	if got := m.AvgRunLen(); got != 3 {
		t.Errorf("AvgRunLen = %v, want 3", got)
	}
}

func TestRLEMiniValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cov  positions.Range
		ts   []Triple
	}{
		{"gap", rangeOf(0, 5), []Triple{{1, 0, 2}, {2, 3, 2}}},
		{"does-not-tile", rangeOf(0, 5), []Triple{{1, 0, 4}}},
		{"empty-run", rangeOf(0, 1), []Triple{{1, 0, 0}, {1, 0, 1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			NewRLEMini(tc.cov, tc.ts)
		}()
	}
}

func TestBVMiniSharedBitstring(t *testing.T) {
	// Single matching value must not copy the bit-string.
	m := BVMiniFromValues(0, []int64{1, 2, 1, 2})
	got := m.Filter(pred.Equals(1))
	if got != positions.Set(m.BitString(0)) {
		t.Error("single-value filter should share the bit-string")
	}
}

func TestBVMiniDistinct(t *testing.T) {
	m := BVMiniFromValues(0, []int64{3, 1, 2, 1})
	if !reflect.DeepEqual(m.DistinctValues(), []int64{1, 2, 3}) {
		t.Errorf("DistinctValues = %v", m.DistinctValues())
	}
}

// TestMiniPropertyAgreement cross-checks all encodings against the plain
// reference on random data: Filter, FilterAt, Extract, ValueAt, SumRange
// must agree exactly regardless of encoding.
func TestMiniPropertyAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(300)
		distinct := 1 + rng.Intn(8)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(distinct))
		}
		// Sometimes sort to create long runs (the RLE-friendly case).
		if rng.Intn(2) == 0 {
			for i := 1; i < n; i++ {
				for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
					vals[j], vals[j-1] = vals[j-1], vals[j]
				}
			}
		}
		start := int64(rng.Intn(4)) * 64
		ms := minis(start, vals)
		ref := ms[0]
		p := pred.Predicate{Op: pred.Op(1 + rng.Intn(6)), A: int64(rng.Intn(distinct + 1))}

		wantFilter := ref.Filter(p)
		restrict, _ := randomSubset(rng, start, int64(n))
		wantFilterAt := ref.FilterAt(restrict, p)
		wantExtract := ref.Extract(nil, restrict)
		for _, m := range ms[1:] {
			if got := m.Filter(p); !positions.Equal(got, wantFilter) {
				t.Fatalf("iter %d: %v Filter(%v) disagrees with plain: %v vs %v",
					iter, m.Kind(), p, positions.Slice(got), positions.Slice(wantFilter))
			}
			if got := m.FilterAt(restrict, p); !positions.Equal(got, wantFilterAt) {
				t.Fatalf("iter %d: %v FilterAt disagrees", iter, m.Kind())
			}
			if got := m.Extract(nil, restrict); !reflect.DeepEqual(got, wantExtract) &&
				!(len(got) == 0 && len(wantExtract) == 0) {
				t.Fatalf("iter %d: %v Extract disagrees: %v vs %v", iter, m.Kind(), got, wantExtract)
			}
			for k := 0; k < 10; k++ {
				pos := start + int64(rng.Intn(n))
				if m.ValueAt(pos) != ref.ValueAt(pos) {
					t.Fatalf("iter %d: %v ValueAt(%d) disagrees", iter, m.Kind(), pos)
				}
			}
			r := rangeOf(start+int64(rng.Intn(n)), start+int64(rng.Intn(n+1)))
			if SumRange(m, r) != SumRange(ref, r) {
				t.Fatalf("iter %d: %v SumRange(%v) disagrees", iter, m.Kind(), r)
			}
		}
	}
}

func randomSubset(rng *rand.Rand, start, n int64) (positions.Set, []bool) {
	ref := make([]bool, n)
	b := positions.NewBuilder(rangeOf(start, start+n))
	if rng.Intn(4) == 0 {
		b.ForceBitmap()
	}
	density := rng.Float64()
	for i := int64(0); i < n; i++ {
		if rng.Float64() < density {
			ref[i] = true
			b.Add(start + i)
		}
	}
	return b.Build(), ref
}

// TestRLERoundTripQuick uses testing/quick to verify that RLE encoding of an
// arbitrary value sequence decompresses to the original.
func TestRLERoundTripQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]int64, len(raw))
		for i, b := range raw {
			vals[i] = int64(b % 5)
		}
		if len(vals) == 0 {
			return true
		}
		m := RLEMiniFromValues(0, vals)
		return reflect.DeepEqual(m.Decompress(nil), vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBVRoundTripQuick does the same for bit-vector encoding.
func TestBVRoundTripQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]int64, len(raw))
		for i, b := range raw {
			vals[i] = int64(b % 7)
		}
		if len(vals) == 0 {
			return true
		}
		m := BVMiniFromValues(0, vals)
		return reflect.DeepEqual(m.Decompress(nil), vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
