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
		if w := CompactByMask(dst, vals, mask, 0); w != len(want) || !slices.Equal(dst[:w], want) || dst[len(want)] != -7 {
			t.Fatalf("%s: out of place wrote %d values, want %d (or values differ)", name, w, len(want))
		}
		// In place: dst is src.
		in := slices.Clone(vals)
		if w := CompactByMask(in, in, mask, 0); w != len(want) || !slices.Equal(in[:w], want) {
			t.Fatalf("%s: in place wrote %d values, want %d (or values differ)", name, w, len(want))
		}
	})
}

// gatherWords names the four word fillings of the gather's mask-form table.
var gatherWords = []struct {
	name string
	word func(rng *rand.Rand, wi int) uint64
}{
	{"all-zero", func(*rand.Rand, int) uint64 { return 0 }},
	{"all-one", func(*rand.Rand, int) uint64 { return ^uint64(0) }},
	{"alternating", func(*rand.Rand, int) uint64 { return 0xAAAAAAAAAAAAAAAA }},
	{"random", func(rng *rand.Rand, _ int) uint64 { return rng.Uint64() }},
}

// TestCompactByMaskBitOffsets is the mask form of the gather as a column
// segment meets it: the segment's first value answers to any bit of the
// descriptor's first word (0…63), its length is anything up to a plain block's
// 8188 values, and the bits below the offset and past the segment's end belong
// to neighbouring segments — set here, so reading one shows. Out of place the
// slot after the last match must stay untouched; in place (dst is src) the
// result must be the same.
func TestCompactByMaskBitOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{0, 1, 63, 64, 65, 8188} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63()
		}
		for off := 0; off < 64; off++ {
			for _, gw := range gatherWords {
				mask := make([]uint64, (off+n+63)/64+1)
				for wi := range mask {
					mask[wi] = gw.word(rng, wi)
				}
				var want []int64
				for i, v := range vals {
					if b := off + i; mask[b/64]>>uint(b%64)&1 == 1 {
						want = append(want, v)
					}
				}
				name := fmt.Sprintf("n=%d/off=%d/%s", n, off, gw.name)
				if c := CountMaskRange(mask, off, off+n); c != len(want) {
					t.Fatalf("%s: CountMaskRange %d, want %d", name, c, len(want))
				}
				dst := make([]int64, len(want)+1)
				dst[len(want)] = -7
				if w := CompactByMask(dst, vals, mask, off); w != len(want) || !slices.Equal(dst[:w], want) || dst[len(want)] != -7 {
					t.Fatalf("%s: out of place wrote %d values, want %d (or values differ)", name, w, len(want))
				}
				in := slices.Clone(vals)
				if w := CompactByMask(in, in, mask, off); w != len(want) || !slices.Equal(in[:w], want) {
					t.Fatalf("%s: in place wrote %d values, want %d (or values differ)", name, w, len(want))
				}
			}
		}
	}
}

// TestGatherListAndFill: listed positions index the segment directly against
// its base — ascending as a descriptor lists them, or shuffled with repeats as
// a join probe produces them — also when the values overwrite the positions
// they were read from; Fill writes exactly the slice it is handed.
func TestGatherListAndFill(t *testing.T) {
	const base = 8188 * 3
	rng := rand.New(rand.NewSource(41))
	src := make([]int64, 8188)
	for i := range src {
		src[i] = rng.Int63()
	}
	for name, pos := range map[string][]int64{
		"none":      {},
		"ends":      {base, base + 8187},
		"ascending": {base + 1, base + 2, base + 64, base + 4000, base + 8000},
		"shuffled":  {base + 900, base + 3, base + 900, base + 8187, base},
	} {
		want := make([]int64, len(pos))
		for i, p := range pos {
			want[i] = src[p-base]
		}
		dst := make([]int64, len(pos)+1)
		dst[len(pos)] = -7
		GatherList(dst, src, pos, base)
		if !slices.Equal(dst[:len(pos)], want) || dst[len(pos)] != -7 {
			t.Fatalf("%s: out of place values differ", name)
		}
		in := slices.Clone(pos)
		GatherList(in, src, in, base)
		if !slices.Equal(in, want) {
			t.Fatalf("%s: in place values differ", name)
		}
	}
	run := []int64{1, 2, 3, 4, 5}
	Fill(run[1:1], 9)
	Fill(run[1:4], 9)
	if !slices.Equal(run, []int64{1, 9, 9, 9, 5}) {
		t.Fatalf("Fill wrote %v", run)
	}
}

// TestScatterMasked: every position set in the descriptor gets the value of
// the one bit-string that holds it, at its rank among the descriptor's
// positions, whatever mix of empty, full and mixed words the two have — and a
// stretch of words continues at the rank the previous one returned.
func TestScatterMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const nw, distinct = 40, 5
	for _, gw := range gatherWords {
		desc := make([]uint64, nw)
		for j := range desc {
			desc[j] = gw.word(rng, j)
		}
		// Each position belongs to exactly one of the distinct values.
		strings := make([][]uint64, distinct)
		for v := range strings {
			strings[v] = make([]uint64, nw)
		}
		var want []int64
		for p := 0; p < nw*64; p++ {
			v := rng.Intn(distinct)
			strings[v][p/64] |= 1 << uint(p%64)
			if desc[p/64]>>uint(p%64)&1 == 1 {
				want = append(want, int64(v))
			}
		}
		out := make([]int64, len(want)+1)
		for i := range out {
			out[i] = -7
		}
		const cut = 17 // gathered as two stretches of words, like two blocks
		for v, words := range strings {
			rank := ScatterMasked(out, int64(v), words[:cut], desc[:cut])
			if rank != CountMask(desc, cut*64) {
				t.Fatalf("%s: first stretch returned rank %d", gw.name, rank)
			}
			if total := rank + ScatterMasked(out[rank:], int64(v), words[cut:], desc[cut:]); total != len(want) {
				t.Fatalf("%s: descriptor holds %d positions, ranks end at %d", gw.name, len(want), total)
			}
		}
		if !slices.Equal(out[:len(want)], want) || out[len(want)] != -7 {
			t.Fatalf("%s: gathered values differ", gw.name)
		}
	}
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
				w = CompactByMask(dst, src, mask, 0)
			}
			b.ReportMetric(float64(w), "kept/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
		})
	}
}
