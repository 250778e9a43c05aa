package pred

import (
	"math/rand"
	"slices"
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

// TestCompileFusedDifferential: a compiled conjunction's kernel must emit
// exactly the AND of the individual compiled kernels' bitmaps, for random
// conjunctions over random value slices whose lengths hit every tail and tile
// boundary, and its scalar test must agree with every bit.
func TestCompileFusedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lengths := []int{0, 1, 63, 64, 65, 127, 1000, fusedTileVals - 1, fusedTileVals, fusedTileVals + 1, 3*fusedTileVals + 17}
	for iter := 0; iter < 60; iter++ {
		k := 1 + rng.Intn(4)
		ps := make([]Predicate, k)
		for i := range ps {
			ps[i] = randPred(rng)
		}
		if iter%2 == 1 {
			// Random conjunctions rarely keep Ne residue; every other one is
			// an interval with two Ne holes, which stays k-ary.
			ps = []Predicate{AtLeast(rng.Int63n(30)), LessThan(71 + rng.Int63n(30)),
				NotEquals(30 + rng.Int63n(40)), NotEquals(30 + rng.Int63n(40))}
		}
		c := CompileConj(ps)
		if iter%2 == 1 && len(c.Preds) < 2 {
			t.Fatalf("CompileConj(%v) = %v: want Ne residue", ps, c.Preds)
		}
		fused := c.Kernel
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
				t.Fatalf("CompileConj(%v) n=%d word %d = %#x, want %#x", ps, n, j, got[j], want[j])
			}
		}
		// And against the scalar conjunction.
		for i, v := range vals {
			bit := got[i/64]>>(uint(i)%64)&1 == 1
			if bit != MatchConj(ps, v) || c.Accepts(v) != bit {
				t.Fatalf("CompileConj(%v) vals[%d]=%d: bit %v, Accepts %v, scalar %v", ps, i, v, bit, c.Accepts(v), MatchConj(ps, v))
			}
		}
	}
}

// TestConjIntervalAndAccepts: a conjunction's bounds are one nonempty
// interval minus exceptions strictly inside it, with no exception exactly when
// it simplifies to one interval predicate and ok=false exactly when it
// simplifies to None; Accepts agrees with the bounds and with the original
// conjunction across the domain — including for a single Predicate compiled
// as a conjunction of one. A conjunction of Ne predicates alone keeps one
// exception per predicate.
func TestConjIntervalAndAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 300; iter++ {
		ps := make([]Predicate, 1+rng.Intn(3))
		for i := range ps {
			ps[i] = randPred(rng)
			if iter%4 == 3 {
				ps[i] = NotEquals(rng.Int63n(100))
			}
		}
		c := CompileConj(ps)
		lo, hi, except, ok := c.Bounds()
		if ok != (c.Preds[0].Op != None) || ok && lo > hi {
			t.Fatalf("CompileConj(%v) = %v: Bounds [%d,%d] ok=%v", ps, c.Preds, lo, hi, ok)
		}
		if ok && (len(except) == 0) != (len(c.Preds) == 1 && c.Preds[0].Op != Ne) {
			t.Fatalf("CompileConj(%v) = %v: except %v", ps, c.Preds, except)
		}
		if iter%4 == 3 && len(except) != len(ps) {
			t.Fatalf("CompileConj(%v): except %v, want one per predicate", ps, except)
		}
		for _, e := range except {
			if e <= lo || e >= hi {
				t.Fatalf("CompileConj(%v): exception %d not inside [%d,%d]", ps, e, lo, hi)
			}
		}
		one := ps[0].Compiled()
		for v := int64(-3); v < 105; v++ {
			in := ok && v >= lo && v <= hi && !slices.Contains(except, v)
			if c.Accepts(v) != MatchConj(ps, v) || c.Accepts(v) != in {
				t.Fatalf("CompileConj(%v).Accepts(%d) = %v, bounds %v", ps, v, c.Accepts(v), in)
			}
			if one.Accepts(v) != ps[0].Match(v) {
				t.Fatalf("%v.Compiled().Accepts(%d) = %v", ps[0], v, one.Accepts(v))
			}
		}
	}
	if c := CompileConj(nil); len(c.Preds) != 1 || c.Preds[0] != MatchAll || !c.Accepts(-1) {
		t.Fatalf("CompileConj(nil) = %v", c.Preds)
	}
}
