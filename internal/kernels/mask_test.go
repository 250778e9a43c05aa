package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// maskLengths are the vector lengths of the differential tests: empty, one
// value, either side of a word boundary, and many words plus a partial one.
var maskLengths = []int{0, 1, 63, 64, 65, 4096 + 17}

// maskShape names one way of filling a mask.
type maskShape struct {
	name string
	// word returns mask word wi.
	word func(rng *rand.Rand, wi int) uint64
}

// randomWord sets each bit with the given probability.
func randomWord(rng *rand.Rand, density float64) uint64 {
	var w uint64
	for j := 0; j < 64; j++ {
		if rng.Float64() < density {
			w |= 1 << uint(j)
		}
	}
	return w
}

// maskShapes covers the densities of the issue and masks whose words are
// each all-ones, all-zero or mixed, so every branch of the word loop is taken
// next to every other.
func maskShapes() []maskShape {
	shapes := []maskShape{{"word-classes", func(rng *rand.Rand, wi int) uint64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return ^uint64(0)
		}
		return randomWord(rng, 0.5)
	}}, {"ones-then-mixed", func(rng *rand.Rand, wi int) uint64 {
		if wi < 3 {
			return ^uint64(0)
		}
		return randomWord(rng, 0.5)
	}}}
	for _, d := range []float64{0, 0.01, 0.5, 0.99, 1} {
		shapes = append(shapes, maskShape{fmt.Sprint("density-", d), func(rng *rand.Rand, wi int) uint64 {
			return randomWord(rng, d)
		}})
	}
	return shapes
}

// forEachMask calls f with values and a mask for every length × shape. The
// mask's last word carries garbage at and above n, which the primitives must
// ignore; set(i) is the scalar reading of bit i.
func forEachMask(t *testing.T, f func(name string, vals []int64, mask []uint64, set func(i int) bool)) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	for _, n := range maskLengths {
		for _, sh := range maskShapes() {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63()
			}
			mask := make([]uint64, (n+63)/64)
			for wi := range mask {
				mask[wi] = sh.word(rng, wi)
			}
			if n%64 != 0 {
				mask[len(mask)-1] |= ^uint64(0) << uint(n%64) // garbage above n
			}
			set := func(i int) bool { return mask[i/64]>>uint(i%64)&1 == 1 }
			f(fmt.Sprintf("n=%d/%s", n, sh.name), vals, mask, set)
		}
	}
}

func TestCompactByMask(t *testing.T) {
	forEachMask(t, func(name string, vals []int64, mask []uint64, set func(int) bool) {
		var want []int64
		for i, v := range vals {
			if set(i) {
				want = append(want, v)
			}
		}
		if c := CountMask(mask, len(vals)); c != len(want) {
			t.Fatalf("%s: CountMask %d, want %d", name, c, len(want))
		}
		// Out of place: exactly the matches are written, nothing after them.
		dst := make([]int64, len(want)+1)
		dst[len(want)] = -7
		if w := CompactByMask(dst, vals, mask); w != len(want) || !slices.Equal(dst[:w], want) || dst[len(want)] != -7 {
			t.Fatalf("%s: out of place wrote %d values, want %d (or values differ)", name, w, len(want))
		}
		// In place: dst is src.
		in := slices.Clone(vals)
		if w := CompactByMask(in, in, mask); w != len(want) || !slices.Equal(in[:w], want) {
			t.Fatalf("%s: in place wrote %d values, want %d (or values differ)", name, w, len(want))
		}
	})
}

func TestPositionsFromMaskAndFillRun(t *testing.T) {
	const base = 1 << 20
	forEachMask(t, func(name string, vals []int64, mask []uint64, set func(int) bool) {
		var want []int64
		for i := range vals {
			if set(i) {
				want = append(want, base+int64(i))
			}
		}
		dst := make([]int64, len(want))
		if w := PositionsFromMask(dst, base, mask, len(vals)); w != len(want) || !slices.Equal(dst, want) {
			t.Fatalf("%s: wrote %d positions, want %d (or positions differ)", name, w, len(want))
		}
	})
	run := make([]int64, 70)
	FillRun(run[:0], 5)
	FillRun(run, -3)
	for i, p := range run {
		if p != int64(i)-3 {
			t.Fatalf("FillRun: position %d is %d", i, p)
		}
	}
}

func TestAndMask(t *testing.T) {
	forEachMask(t, func(name string, vals []int64, mask []uint64, set func(int) bool) {
		other := make([]uint64, len(mask))
		rng := rand.New(rand.NewSource(int64(len(vals))))
		for i := range other {
			other[i] = rng.Uint64()
		}
		want := 0
		for i := range vals {
			if set(i) && other[i/64]>>uint(i%64)&1 == 1 {
				want++
			}
		}
		dst := slices.Clone(mask)
		if c := AndMask(dst, other, len(vals)); c != want || c != CountMask(dst, len(vals)) {
			t.Fatalf("%s: AndMask counted %d, want %d (CountMask %d)", name, c, want, CountMask(dst, len(vals)))
		}
		for i := range dst {
			if dst[i] != mask[i]&other[i] {
				t.Fatalf("%s: word %d is not the AND", name, i)
			}
		}
	})
}

// TestSumColumn: the four-accumulator sum is the row-order sum, wrap-around
// included, at every length modulo the unrolling.
func TestSumColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range append([]int{2, 3, 4, 5, 7}, maskLengths...) {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(math.MaxInt64) - math.MaxInt64/4 // sums overflow and wrap
		}
		var want int64
		for _, v := range vals {
			want += v
		}
		if got := SumColumn(vals); got != want {
			t.Errorf("n=%d: SumColumn %d, row-order sum %d", n, got, want)
		}
	}
}

// BenchmarkCompactByMask compacts one default-width chunk out of place
// through a random mask: at 0.01 nearly every word is empty or holds one bit,
// at 0.5 every word walks about 32 bits, at 1 every word is one copy.
func BenchmarkCompactByMask(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(31))
	src := make([]int64, n)
	for i := range src {
		src[i] = rng.Int63()
	}
	dst := make([]int64, n)
	for _, d := range []float64{0.01, 0.5, 1} {
		mask := make([]uint64, n/64)
		for i := range mask {
			mask[i] = randomWord(rng, d)
		}
		b.Run(fmt.Sprint("density-", d), func(b *testing.B) {
			b.ReportAllocs()
			w := 0
			for i := 0; i < b.N; i++ {
				w = CompactByMask(dst, src, mask)
			}
			b.ReportMetric(float64(w), "kept/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
		})
	}
}
