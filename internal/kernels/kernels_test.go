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
