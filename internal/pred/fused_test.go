package pred

import (
	"math/rand"
	"testing"
)

// randPred draws a predicate over roughly [0, 100), including boundary and
// out-of-domain constants and every operator.
func randPred(rng *rand.Rand) Predicate {
	a := rng.Int63n(104) - 2
	b := rng.Int63n(104) - 2
	switch rng.Intn(9) {
	case 0:
		return MatchAll
	case 1:
		return LessThan(a)
	case 2:
		return AtMost(a)
	case 3:
		return Equals(a)
	case 4:
		return NotEquals(a)
	case 5:
		return AtLeast(a)
	case 6:
		return GreaterThan(a)
	case 7:
		return InRange(a, b)
	default:
		return Predicate{Op: None}
	}
}

// TestSimplifyConjEquivalence: the simplified conjunction must accept exactly
// the same values as the original, over the whole relevant domain.
func TestSimplifyConjEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		k := 1 + rng.Intn(4)
		ps := make([]Predicate, k)
		for i := range ps {
			ps[i] = randPred(rng)
		}
		simp := SimplifyConj(ps)
		if len(simp) == 0 {
			t.Fatalf("SimplifyConj(%v) returned empty list", ps)
		}
		for v := int64(-3); v < 105; v++ {
			if got, want := MatchConj(simp, v), MatchConj(ps, v); got != want {
				t.Fatalf("SimplifyConj(%v) = %v: value %d got %v want %v", ps, simp, v, got, want)
			}
		}
	}
}

// TestSimplifyConjBoundaryShrink covers the Ne-at-boundary interval shrink
// and full collapse.
func TestSimplifyConjBoundaryShrink(t *testing.T) {
	cases := []struct {
		in   []Predicate
		want []Predicate
	}{
		{[]Predicate{AtLeast(3), AtMost(5), NotEquals(3), NotEquals(4)}, []Predicate{Equals(5)}},
		{[]Predicate{Equals(7), NotEquals(7)}, []Predicate{{Op: None}}},
		{[]Predicate{AtLeast(10), AtMost(5)}, []Predicate{{Op: None}}},
		{[]Predicate{GreaterThan(2), LessThan(10)}, []Predicate{InRange(3, 10)}},
		{[]Predicate{MatchAll, MatchAll}, []Predicate{MatchAll}},
		{[]Predicate{LessThan(10), NotEquals(50)}, []Predicate{AtMost(9)}},
	}
	for _, c := range cases {
		got := SimplifyConj(c.in)
		if len(got) != len(c.want) {
			t.Errorf("SimplifyConj(%v) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SimplifyConj(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestCompileFusedDifferential: the fused kernel must emit exactly the AND of
// the individual compiled kernels' bitmaps, for random conjunctions over
// random value slices whose lengths hit every tail and tile boundary.
func TestCompileFusedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lengths := []int{0, 1, 63, 64, 65, 127, 1000, fusedTileVals - 1, fusedTileVals, fusedTileVals + 1, 3*fusedTileVals + 17}
	for iter := 0; iter < 60; iter++ {
		k := 1 + rng.Intn(4)
		ps := make([]Predicate, k)
		for i := range ps {
			ps[i] = randPred(rng)
		}
		fused := CompileFused(ps)
		n := lengths[iter%len(lengths)]
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(104) - 2
		}
		nw := (n + 63) / 64
		got := make([]uint64, nw)
		fused(vals, got)
		// Reference: AND of individually compiled kernels.
		want := make([]uint64, nw)
		tmp := make([]uint64, nw)
		for i, p := range ps {
			Compile(p)(vals, tmp)
			if i == 0 {
				copy(want, tmp)
			} else {
				for j := range want {
					want[j] &= tmp[j]
				}
			}
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("CompileFused(%v) n=%d word %d = %#x, want %#x", ps, n, j, got[j], want[j])
			}
		}
		// And against the scalar conjunction.
		for i, v := range vals {
			bit := got[i/64]>>(uint(i)%64)&1 == 1
			if bit != MatchConj(ps, v) {
				t.Fatalf("CompileFused(%v) vals[%d]=%d: bit %v, scalar %v", ps, i, v, bit, MatchConj(ps, v))
			}
		}
	}
}
