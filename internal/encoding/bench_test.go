package encoding

import (
	"math/rand"
	"testing"

	"matstore/internal/positions"
	"matstore/internal/pred"
)

// Micro-benchmarks for the per-encoding mini-column primitives that
// dominate query CPU.

func benchVals(n, distinct int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * distinct / n) // sorted, runs of n/distinct
	}
	return vals
}

// benchValsRandom is unsorted data with the given distinct count: the
// branch-unfriendly case for per-value predicate evaluation.
func benchValsRandom(n, distinct int) []int64 {
	vals := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = rng.Int63n(int64(distinct))
	}
	return vals
}

// BenchmarkFilterPlain measures the compiled word-at-a-time scan kernel;
// BenchmarkFilterPlainScalar is the retained per-value reference path the
// kernel must beat (PR 2's acceptance target: ≥ 2x on ns/op).
func BenchmarkFilterPlain(b *testing.B) {
	m := PlainMiniFromValues(0, benchVals(1<<16, 7))
	p := pred.LessThan(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Filter(p).Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFilterPlainScalar(b *testing.B) {
	m := PlainMiniFromValues(0, benchVals(1<<16, 7))
	p := pred.LessThan(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.filterScalar(p).Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFilterPlainRandom(b *testing.B) {
	m := PlainMiniFromValues(0, benchValsRandom(1<<16, 7))
	p := pred.LessThan(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Filter(p).Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFilterPlainRandomScalar(b *testing.B) {
	m := PlainMiniFromValues(0, benchValsRandom(1<<16, 7))
	p := pred.LessThan(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.filterScalar(p).Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFilterRLE(b *testing.B) {
	m := RLEMiniFromValues(0, benchVals(1<<16, 7))
	p := pred.LessThan(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Filter(p).Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFilterBV(b *testing.B) {
	m := BVMiniFromValues(0, benchVals(1<<16, 7))
	p := pred.LessThan(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Filter(p).Count() == 0 {
			b.Fatal("empty")
		}
	}
}

// benchExtract gathers from one default-width chunk into a destination sized
// beforehand, under each shape of descriptor the executor hands a DS3: two
// long ranges (a predicate over sorted data), the bit-string of a predicate
// over unsorted data at 50 % (runs two positions long) and at 2 %, and the
// ascending list an EM-pipelined batch carries (every third position). A
// presized destination is never regrown, so plain and RLE allocate nothing;
// bit-vector data allocates its descriptor's words when the descriptor is not
// a bit-string already.
func benchExtract(b *testing.B, m MiniColumn) {
	b.Helper()
	const n = 1 << 16
	rng := rand.New(rand.NewSource(5))
	bitmap := func(density float64) positions.Set {
		bm := positions.NewBitmap(0, n)
		for p := int64(0); p < n; p++ {
			if rng.Float64() < density {
				bm.Set(p)
			}
		}
		return bm
	}
	var list positions.List
	for p := int64(1); p < n; p += 3 {
		list = append(list, p)
	}
	for _, d := range []struct {
		name string
		ps   positions.Set
	}{
		{"ranges", positions.NewRanges(positions.Range{Start: 1000, End: 20000}, positions.Range{Start: 30000, End: 50000})},
		{"bitmap50", bitmap(0.5)},
		{"bitmap02", bitmap(0.02)},
		{"list", list},
	} {
		b.Run(d.name, func(b *testing.B) {
			dst := make([]int64, 0, d.ps.Count())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = m.Extract(dst[:0], d.ps)
			}
			if int64(len(dst)) != d.ps.Count() {
				b.Fatal("short extract")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/pos")
		})
	}
}

// The plain and bit-vector windows hold unsorted data, as the columns such
// descriptors come from do; the RLE window runs of 77, paper_select's length.
func BenchmarkExtractPlain(b *testing.B) {
	benchExtract(b, PlainMiniFromValues(0, benchValsRandom(1<<16, 7)))
}
func BenchmarkExtractRLE(b *testing.B) { benchExtract(b, RLEMiniFromValues(0, benchVals(1<<16, 851))) }
func BenchmarkExtractBV(b *testing.B) {
	benchExtract(b, BVMiniFromValues(0, benchValsRandom(1<<16, 7)))
}

func benchSumRange(b *testing.B, m MiniColumn) {
	b.Helper()
	r := positions.Range{Start: 100, End: 60000}
	b.ReportAllocs()
	b.ResetTimer()
	var acc int64
	for i := 0; i < b.N; i++ {
		acc += SumRange(m, r)
	}
	_ = acc
}

func BenchmarkSumRangePlain(b *testing.B) {
	benchSumRange(b, PlainMiniFromValues(0, benchVals(1<<16, 7)))
}
func BenchmarkSumRangeRLE(b *testing.B) { benchSumRange(b, RLEMiniFromValues(0, benchVals(1<<16, 7))) }
func BenchmarkSumRangeBV(b *testing.B)  { benchSumRange(b, BVMiniFromValues(0, benchVals(1<<16, 7))) }

func BenchmarkDecodePlainBlock(b *testing.B) {
	buf := make([]byte, BlockSize)
	vals := benchVals(PlainBlockCap, 100)
	EncodePlainBlock(buf, 0, vals)
	b.SetBytes(int64(8 * PlainBlockCap))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePlainBlock(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRLEBlock(b *testing.B) {
	buf := make([]byte, BlockSize)
	ts := make([]Triple, RLEBlockCap)
	pos := int64(0)
	for i := range ts {
		ts[i] = Triple{Value: int64(i % 7), Start: pos, Len: 10}
		pos += 10
	}
	EncodeRLEBlock(buf, ts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRLEBlock(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Fused multi-predicate scan benchmarks: FilterFused evaluates k predicates
// over one column in a single pass; the unfused reference runs k Filter
// scans and ANDs the resulting position sets. The interval pair collapses
// to one compiled kernel (the planner's common case); the +Ne variant keeps
// a genuine 2-ary fused kernel.
func BenchmarkFilterFused2(b *testing.B) {
	m := PlainMiniFromValues(0, benchValsRandom(1<<16, 1000))
	ps := []pred.Predicate{pred.AtLeast(100), pred.LessThan(900)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FilterFused(m, ps).Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFilterUnfused2(b *testing.B) {
	m := PlainMiniFromValues(0, benchValsRandom(1<<16, 1000))
	ps := []pred.Predicate{pred.AtLeast(100), pred.LessThan(900)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := positions.And(m.Filter(ps[0]), m.Filter(ps[1]))
		if out.Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFilterFused3Ne(b *testing.B) {
	m := PlainMiniFromValues(0, benchValsRandom(1<<16, 1000))
	ps := []pred.Predicate{pred.AtLeast(100), pred.LessThan(900), pred.NotEquals(500)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FilterFused(m, ps).Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFilterUnfused3Ne(b *testing.B) {
	m := PlainMiniFromValues(0, benchValsRandom(1<<16, 1000))
	ps := []pred.Predicate{pred.AtLeast(100), pred.LessThan(900), pred.NotEquals(500)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := m.Filter(ps[0])
		for _, p := range ps[1:] {
			out = positions.And(out, m.Filter(p))
		}
		if out.Count() == 0 {
			b.Fatal("empty")
		}
	}
}

// Adaptive FilterAt benchmarks: the dense regime (a near-full candidate set,
// where the compiled kernel path wins) and the sparse regime (a few
// candidates, where the run-builder path wins), both driven through the
// adaptive policy as the executor drives them.
func BenchmarkFilterAtAdaptiveDense(b *testing.B) {
	m := PlainMiniFromValues(0, benchValsRandom(1<<16, 1000))
	cand := positions.NewRanges(positions.Range{Start: 0, End: 1 << 16})
	p := pred.LessThan(500)
	var pol AdaptiveFilterAt
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pol.FilterAt(m, cand, p).Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFilterAtAdaptiveSparse(b *testing.B) {
	m := PlainMiniFromValues(0, benchValsRandom(1<<16, 1000))
	var cand positions.List
	for p := int64(0); p < 1<<16; p += 1024 {
		cand = append(cand, p)
	}
	p := pred.LessThan(999)
	var pol AdaptiveFilterAt
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pol.FilterAt(m, cand, p).Count() == 0 {
			b.Fatal("empty")
		}
	}
}
