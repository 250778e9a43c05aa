package kernels

import (
	"math/rand"
	"testing"

	"matstore/internal/positions"
	"matstore/internal/pred"
)

// TestFilterIntoBitmapAlignment drives the word-emission path across every
// alignment class a plain window can produce: segment bases on and off word
// boundaries (plain blocks hold 8188 values, 8188 % 64 = 60), segment
// lengths spanning full-word, partial-word and tile boundaries, and adjacent
// segments whose emissions meet inside a shared word.
func TestFilterIntoBitmapAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := pred.InRange(3, 8)
	k := pred.Compile(p)
	for _, base := range []int64{0, 1, 60, 63, 64, 127, 8188} {
		for _, n := range []int{0, 1, 4, 63, 64, 65, 100, 4095, 4096, 4097, 8200} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63n(10)
			}
			bm := positions.NewBitmap(0, base+int64(n)+7)
			FilterIntoBitmap(bm, base, vals, k)
			for i, v := range vals {
				want := p.Match(v)
				if got := bm.Contains(base + int64(i)); got != want {
					t.Fatalf("base=%d n=%d i=%d v=%d: got %v want %v", base, n, i, v, got, want)
				}
			}
			// No bit outside [base, base+n) may be set.
			if c := bm.Count(); c != countMatches(vals, p) {
				t.Fatalf("base=%d n=%d: count %d, want %d", base, n, c, countMatches(vals, p))
			}
		}
	}
}

// TestFilterIntoBitmapAdjacentSegments checks that two emissions meeting
// mid-word OR together instead of clobbering each other.
func TestFilterIntoBitmapAdjacentSegments(t *testing.T) {
	k := pred.Compile(pred.MatchAll)
	bm := positions.NewBitmap(0, 256)
	FilterIntoBitmap(bm, 0, make([]int64, 100), k)  // [0,100)
	FilterIntoBitmap(bm, 100, make([]int64, 60), k) // [100,160), both ends mid-word
	FilterIntoBitmap(bm, 200, make([]int64, 56), k) // [200,256), gap before
	want := positions.NewRanges(positions.Range{Start: 0, End: 160}, positions.Range{Start: 200, End: 256})
	if !positions.Equal(bm, want) {
		t.Fatalf("got %v want %v", positions.ToRanges(bm), want)
	}
}

func countMatches(vals []int64, p pred.Predicate) int64 {
	var n int64
	for _, v := range vals {
		if p.Match(v) {
			n++
		}
	}
	return n
}

// TestScatterBits exercises the bit-scatter gather loop across window edges
// that start and end mid-word and bit patterns with empty and full words.
func TestScatterBits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const bitBase, nbits = 128, 512
	words := make([]uint64, nbits/64)
	for i := range words {
		switch i % 3 {
		case 0:
			words[i] = rng.Uint64()
		case 1:
			words[i] = 0
		default:
			words[i] = ^uint64(0)
		}
	}
	contains := func(p int64) bool {
		i := p - bitBase
		return words[i>>6]&(1<<uint(i&63)) != 0
	}
	for _, r := range []positions.Range{
		{Start: 128, End: 640},
		{Start: 130, End: 139},
		{Start: 191, End: 193},
		{Start: 200, End: 200}, // empty
		{Start: 576, End: 640},
	} {
		const dstOff = 5
		out := make([]int64, dstOff+r.Len()+3)
		for i := range out {
			out[i] = -1
		}
		ScatterBits(out, 42, words, bitBase, r, dstOff)
		for p := r.Start; p < r.End; p++ {
			want := int64(-1)
			if contains(p) {
				want = 42
			}
			if got := out[dstOff+p-r.Start]; got != want {
				t.Fatalf("window %v pos %d: got %d want %d", r, p, got, want)
			}
		}
		// Slots outside the window untouched.
		for i := 0; i < dstOff; i++ {
			if out[i] != -1 {
				t.Fatalf("window %v: wrote before dstOff", r)
			}
		}
		for i := dstOff + int(r.Len()); i < len(out); i++ {
			if out[i] != -1 {
				t.Fatalf("window %v: wrote past window", r)
			}
		}
	}
}
