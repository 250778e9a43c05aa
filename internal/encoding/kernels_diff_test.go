package encoding

import (
	"math/rand"
	"slices"
	"testing"

	"matstore/internal/positions"
	"matstore/internal/pred"
)

// Differential kernel suite: the compiled scan kernels (word-at-a-time plain
// filtering, run-at-a-time RLE interval tests, binary-searched bit-vector
// string selection) must produce exactly the same position sets as the
// retained scalar reference implementations, for every encoding × every
// pred.Op × selectivities spanning {0, ~0.01, ~0.5, ~0.99, 1}, over data
// shapes that exercise every alignment path.

const diffDomain = 1000 // values drawn from [0, diffDomain)

// diffPredicates builds, for one op, predicates whose accepted fraction of
// [0, diffDomain) sweeps the five selectivity points (for Eq/Ne the
// achievable selectivities are ~0 and ~1; the sweep still varies the
// constant across the domain, including out-of-domain constants).
func diffPredicates(op pred.Op) []pred.Predicate {
	cuts := []int64{0, diffDomain / 100, diffDomain / 2, diffDomain * 99 / 100, diffDomain}
	var out []pred.Predicate
	switch op {
	case pred.All:
		return []pred.Predicate{pred.MatchAll}
	case pred.None:
		return []pred.Predicate{{Op: pred.None}}
	case pred.Between:
		for _, q := range cuts {
			lo := (diffDomain - q) / 2
			out = append(out, pred.InRange(lo, lo+q))
		}
		// Reversed and empty intervals: InRange does not validate argument
		// order, so kernels must treat B <= A as matching nothing.
		out = append(out,
			pred.InRange(diffDomain*3/4, diffDomain/4),
			pred.InRange(diffDomain/2, diffDomain/2))
		return out
	default:
		for _, q := range cuts {
			// Constants at the quantile, plus just outside the domain.
			for _, a := range []int64{q, -1, diffDomain + 1} {
				out = append(out, pred.Predicate{Op: op, A: a})
			}
		}
		return out
	}
}

var diffOps = []pred.Op{pred.All, pred.Lt, pred.Le, pred.Eq, pred.Ne, pred.Ge, pred.Gt, pred.Between, pred.None}

// diffMiniCase is one (data shape, encoding) instance with its scalar
// reference hooks.
type diffMiniCase struct {
	name     string
	mc       MiniColumn
	filter   func(pred.Predicate) positions.Set
	filterAt func(positions.Set, pred.Predicate) positions.Set
}

func diffMinis(t *testing.T) []diffMiniCase {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	const n = 10000 // not a multiple of 64: every bitmap tail path runs
	random := make([]int64, n)
	sorted := make([]int64, n)
	lowCard := make([]int64, n)
	for i := range random {
		random[i] = rng.Int63n(diffDomain)
		sorted[i] = int64(i) * diffDomain / n
		lowCard[i] = rng.Int63n(8) * (diffDomain / 8)
	}
	var cases []diffMiniCase
	addPlain := func(name string, m *PlainMini) {
		cases = append(cases, diffMiniCase{name, m, m.filterScalar, m.filterAtScalar})
	}
	addPlain("plain/random", PlainMiniFromValues(64, random))
	addPlain("plain/sorted", PlainMiniFromValues(0, sorted))
	// Multi-segment windows mirror storage: plain blocks hold 8188 values,
	// so mid-window segments start at non-64-aligned positions.
	seg := NewPlainMini(positions.Range{Start: 128, End: 128 + n})
	seg.AddSegment(128, random[:8188])
	seg.AddSegment(128+8188, random[8188:])
	addPlain("plain/blockseg", seg)
	// A chunk window over three blocks: the tail of one, the whole of the next
	// and the head of a third.
	three := NewPlainMini(positions.Range{Start: 7488, End: 7488 + n})
	three.AddSegment(7488, random[:700])
	three.AddSegment(8188, random[700:700+8188])
	three.AddSegment(2*8188, random[700+8188:])
	addPlain("plain/threeblocks", three)
	odd := NewPlainMini(positions.Range{Start: 0, End: n})
	for off := 0; off < n; {
		l := 97 + (off % 61)
		if off+l > n {
			l = n - off
		}
		odd.AddSegment(int64(off), random[off:off+l])
		off += l
	}
	addPlain("plain/oddseg", odd)

	rle := RLEMiniFromValues(192, sorted)
	cases = append(cases, diffMiniCase{"rle/sorted", rle, rle.filterScalar, rle.filterAtScalar})
	rleRnd := RLEMiniFromValues(0, lowCard)
	cases = append(cases, diffMiniCase{"rle/lowcard", rleRnd, rleRnd.filterScalar, rleRnd.filterAtScalar})

	bv := BVMiniFromValues(64, lowCard)
	cases = append(cases, diffMiniCase{"bv/lowcard", bv, bv.filterScalar,
		func(ps positions.Set, p pred.Predicate) positions.Set {
			return positions.And(bv.filterScalar(p), ps)
		}})
	return cases
}

// diffCandidates builds FilterAt candidate sets over cov in each
// representation and density class (both sides of the dense cutoff).
func diffCandidates(cov positions.Range) map[string]positions.Set {
	full := positions.NewRanges(cov)
	sparseList := positions.List{}
	for p := cov.Start; p < cov.End; p += 97 {
		sparseList = append(sparseList, p)
	}
	tiny := positions.List{cov.Start, cov.Start + 1, cov.End - 1}
	var runs positions.Ranges
	for p := cov.Start; p+5 < cov.End; p += 64 {
		runs = append(runs, positions.Range{Start: p, End: p + 5})
	}
	bm := positions.NewBitmap(cov.Start&^63, cov.End-cov.Start&^63)
	rng := rand.New(rand.NewSource(7))
	for p := cov.Start; p < cov.End; p++ {
		if rng.Intn(2) == 0 {
			bm.Set(p)
		}
	}
	return map[string]positions.Set{
		"full":   full,
		"sparse": sparseList,
		"tiny":   tiny,
		"runs":   runs,
		"bitmap": bm,
		"empty":  positions.Empty{},
	}
}

func TestDifferentialFilterKernels(t *testing.T) {
	for _, c := range diffMinis(t) {
		cands := diffCandidates(c.mc.Covering())
		for _, op := range diffOps {
			for pi, p := range diffPredicates(op) {
				got := c.mc.Filter(p)
				want := c.filter(p)
				if !positions.Equal(got, want) {
					t.Fatalf("%s Filter(%v) [case %d]: kernel %d positions, scalar %d",
						c.name, p, pi, got.Count(), want.Count())
				}
				for cname, ps := range cands {
					gotAt := c.mc.FilterAt(ps, p)
					wantAt := c.filterAt(ps, p)
					if !positions.Equal(gotAt, wantAt) {
						t.Fatalf("%s FilterAt(%s, %v) [case %d]: kernel %d positions, scalar %d",
							c.name, cname, p, pi, gotAt.Count(), wantAt.Count())
					}
				}
			}
		}
	}
}

// extractShapes adds to the FilterAt candidates the descriptor shapes a gather
// meets and a filter's own output does not cover: a bit-string that reaches
// past the window on both sides with bits set out there (a descriptor clipped
// by the column extent), and a long ascending list.
func extractShapes(cov positions.Range) map[string]positions.Set {
	shapes := diffCandidates(cov)
	start := max(cov.Start-128, 0) &^ 63
	clipped := positions.NewBitmap(start, cov.End+200-start)
	rng := rand.New(rand.NewSource(11))
	for p := start; p < cov.End+200; p++ {
		if rng.Intn(2) == 0 {
			clipped.Set(p)
		}
	}
	shapes["clipped"] = clipped
	long := positions.List{}
	for p := cov.Start + 1; p < cov.End; p += 1 + rng.Int63n(3) {
		long = append(long, p)
	}
	shapes["longlist"] = long
	return shapes
}

// TestDifferentialExtractAfterKernels closes the loop from filter output to
// value extraction: whatever representation the kernel emits, Extract must
// return the same values as extracting the scalar reference's output — and,
// for every descriptor representation and density (the dense random bit-string
// of ~50 %, one clipped by the window, sparse and long lists, short and full
// ranges) over windows of one segment, of two and three blocks and of many odd
// segments, the values the per-position ValueAt reference returns, appended
// after what dst already holds.
func TestDifferentialExtractAfterKernels(t *testing.T) {
	for _, c := range diffMinis(t) {
		for _, p := range []pred.Predicate{
			pred.LessThan(diffDomain / 2), pred.Equals(0), pred.NotEquals(diffDomain / 2), pred.MatchAll,
		} {
			got := c.mc.Extract(nil, c.mc.Filter(p))
			want := c.mc.Extract(nil, c.filter(p))
			if !slices.Equal(got, want) {
				t.Fatalf("%s Extract after Filter(%v): values differ (%d vs %d)", c.name, p, len(got), len(want))
			}
		}
		cov := c.mc.Covering()
		for name, ps := range extractShapes(cov) {
			want := []int64{-1, -2}
			for _, p := range positions.Slice(ps) {
				if cov.Contains(p) {
					want = append(want, c.mc.ValueAt(p))
				}
			}
			if got := c.mc.Extract([]int64{-1, -2}, ps); !slices.Equal(got, want) {
				t.Fatalf("%s Extract(%s): %d values, ValueAt gives %d (or values differ)", c.name, name, len(got)-2, len(want)-2)
			}
		}
	}
}

// fusedConjCases draws conjunctions spanning the shapes SimplifyConj and the
// fused kernel must handle: pure interval pairs (collapse to one kernel),
// interval+Ne residue (true k-ary fused kernel), contradictions, and
// trivial conjuncts.
func fusedConjCases() [][]pred.Predicate {
	d := int64(diffDomain)
	return [][]pred.Predicate{
		{pred.AtLeast(d / 4), pred.LessThan(3 * d / 4)},
		{pred.LessThan(3 * d / 4), pred.AtLeast(d / 4), pred.NotEquals(d / 2)},
		{pred.NotEquals(d / 3), pred.NotEquals(d / 2)},
		{pred.MatchAll, pred.LessThan(d / 100)},
		{pred.AtLeast(d), pred.LessThan(1)},                                   // contradiction
		{pred.InRange(0, d), pred.InRange(d/2, d/2+1), pred.NotEquals(d / 2)}, // collapses to None
		{pred.GreaterThan(d * 99 / 100), pred.NotEquals(d - 1)},
		{pred.MatchAll, pred.MatchAll, pred.MatchAll},
	}
}

// TestDifferentialFilterFused: for every encoding and conjunction shape, the
// single-pass fused filter must equal the AND of per-predicate scalar
// reference filters — the unfused path.
func TestDifferentialFilterFused(t *testing.T) {
	for _, c := range diffMinis(t) {
		for ci, ps := range fusedConjCases() {
			got := FilterFused(c.mc, ps)
			want := c.filter(ps[0])
			for _, p := range ps[1:] {
				want = positions.And(want, c.filter(p))
			}
			if !positions.Equal(got, want) {
				t.Fatalf("%s FilterFused case %d (%v): fused %d positions, unfused %d",
					c.name, ci, ps, got.Count(), want.Count())
			}
		}
	}
}

// TestDifferentialFilterAtFused checks the fused candidate-narrowing path
// (with and without the adaptive policy) against sequential per-predicate
// FilterAt over every candidate representation.
func TestDifferentialFilterAtFused(t *testing.T) {
	for _, c := range diffMinis(t) {
		cands := diffCandidates(c.mc.Covering())
		for ci, ps := range fusedConjCases() {
			for cname, cand := range cands {
				want := cand
				for _, p := range ps {
					want = c.filterAt(want, p)
				}
				got := FilterAtFused(c.mc, cand, ps, nil)
				if !positions.Equal(got, want) {
					t.Fatalf("%s FilterAtFused(%s) case %d: fused %d positions, sequential %d",
						c.name, cname, ci, got.Count(), want.Count())
				}
				var pol AdaptiveFilterAt
				gotPol := FilterAtFused(c.mc, cand, ps, &pol)
				if !positions.Equal(gotPol, want) {
					t.Fatalf("%s FilterAtFused(%s, adaptive) case %d: %d positions, want %d",
						c.name, cname, ci, gotPol.Count(), want.Count())
				}
			}
		}
	}
}

// TestDifferentialFilterAtChoice forces BOTH the dense (kernel+bitmap) and
// sparse (run-builder) FilterAt paths for every plain case, candidate shape
// and predicate — each regime must match the scalar reference regardless of
// what the cutoff would have chosen.
func TestDifferentialFilterAtChoice(t *testing.T) {
	for _, c := range diffMinis(t) {
		pm, ok := c.mc.(*PlainMini)
		if !ok {
			continue
		}
		cands := diffCandidates(c.mc.Covering())
		for _, op := range diffOps {
			for pi, p := range diffPredicates(op) {
				for cname, ps := range cands {
					want := c.filterAt(ps, p)
					for _, dense := range []bool{false, true} {
						got := pm.FilterAtChoice(ps, p, dense)
						if !positions.Equal(got, want) {
							t.Fatalf("%s FilterAtChoice(%s, %v, dense=%v) [case %d]: %d positions, scalar %d",
								c.name, cname, p, dense, pi, got.Count(), want.Count())
						}
					}
				}
			}
		}
	}
}

// TestAdaptiveFilterAtPolicy pins the decision rule: the first chunk uses
// the static cutoff, later chunks predict from the previous chunk's
// candidate density, and the policy actually switches regimes when density
// crosses the threshold.
func TestAdaptiveFilterAtPolicy(t *testing.T) {
	var a AdaptiveFilterAt
	const width = 1 << 16
	// No history: static cutoff on the current count.
	if a.dense(filterAtDenseCutoff, width) {
		t.Error("first chunk: count at cutoff should be sparse")
	}
	if !a.dense(filterAtDenseCutoff+1, width) {
		t.Error("first chunk: count above cutoff should be dense")
	}
	// Dense history: a dense previous chunk predicts dense even when the
	// current count is small.
	a.observe(width/2, width)
	if !a.dense(8, width) {
		t.Error("dense history should choose the dense path")
	}
	// Sparse history: predicts sparse even for a count above the cutoff.
	a.observe(4, width)
	if a.dense(100000, width) {
		t.Error("sparse history should choose the sparse path")
	}
	// The policy-driven path must agree with the static path on results
	// across a chunk sequence whose density flips between regimes.
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i % 251)
	}
	m := PlainMiniFromValues(0, vals)
	p := pred.LessThan(200)
	var pol AdaptiveFilterAt
	for chunk, cand := range []positions.Set{
		positions.NewRanges(positions.Range{Start: 0, End: 4096}), // dense
		positions.List{1, 2, 4093},                                // sparse
		positions.NewRanges(positions.Range{Start: 64, End: 3200}),
		positions.List{700},
	} {
		got := pol.FilterAt(m, cand, p)
		want := m.filterAtScalar(cand, p)
		if !positions.Equal(got, want) {
			t.Fatalf("adaptive chunk %d: %d positions, want %d", chunk, got.Count(), want.Count())
		}
	}
}
