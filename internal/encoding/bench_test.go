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

// benchRuns is data in runs of runLen equal values drawn from [0, domain).
func benchRuns(n, runLen int, domain int64) []int64 {
	vals := make([]int64, n)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i += runLen {
		v := rng.Int63n(domain)
		for j := i; j < min(i+runLen, n); j++ {
			vals[j] = v
		}
	}
	return vals
}

// benchFilterAt narrows each candidate form FilterAt is handed by a predicate
// accepting about half the values, over a window of 20,000 positions that a
// plain column stores across three blocks (the tail of one, a whole one, the
// head of a third): one range over the window and one over part of it,
// bit-strings at 50 %, 2 % and 0.1 %, lists of 64 and 2,048 positions.
func benchFilterAt(b *testing.B, m MiniColumn, p pred.Predicate) {
	b.Helper()
	cands := filterAtCandidates(m.Covering())
	c := pred.CompileConj([]pred.Predicate{p})
	for _, name := range []string{"range", "halfrange", "bitmap50", "bitmap02", "bitmap001", "list64", "list2048"} {
		b.Run(name, func(b *testing.B) {
			cand := cands[name]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.FilterAt(cand, c).Count() > cand.Count() {
					b.Fatal("FilterAt grew its candidate set")
				}
			}
		})
	}
}

// Plain data is unsorted; RLE data runs 77 long, paper_select's length;
// bit-vector data has seven distinct values.
func BenchmarkFilterAtPlain(b *testing.B) {
	benchFilterAt(b, threeBlockPlain(0, 700, benchValsRandom(20000, 1000)).mc, pred.LessThan(500))
}
func BenchmarkFilterAtRLE(b *testing.B) {
	benchFilterAt(b, RLEMiniFromValues(0, benchRuns(20000, 77, 1000)), pred.LessThan(500))
}
func BenchmarkFilterAtBV(b *testing.B) {
	benchFilterAt(b, BVMiniFromValues(0, benchValsRandom(20000, 7)), pred.LessThan(4))
}

// BenchmarkDecompressBV expands a default-width chunk of unsorted seven-value
// bit-vector data into a destination sized beforehand — EM-parallel's
// decompression of a bit-vector column on every chunk.
func BenchmarkDecompressBV(b *testing.B) {
	m := BVMiniFromValues(0, benchValsRandom(1<<16, 7))
	dst := make([]int64, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.Decompress(dst[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/value")
}
