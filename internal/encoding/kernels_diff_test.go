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
	three := threeBlockPlain(7488, 700, random)
	three.name = "plain/threeblocks"
	cases = append(cases, three)
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
// representation and density class.
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
// after what dst already holds. Decompress is held to ValueAt the same way.
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
		whole := []int64{-1, -2}
		for p := cov.Start; p < cov.End; p++ {
			whole = append(whole, c.mc.ValueAt(p))
		}
		if got := c.mc.Decompress([]int64{-1, -2}); !slices.Equal(got, whole) {
			t.Fatalf("%s Decompress: %d values, ValueAt gives %d (or values differ)", c.name, len(got)-2, len(whole)-2)
		}
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

// sequentialFilterAt is the scalar reference for a conjunction at candidate
// positions: the per-predicate filterAtScalar references applied in turn.
func sequentialFilterAt(filterAt func(positions.Set, pred.Predicate) positions.Set, cand positions.Set, ps []pred.Predicate) positions.Set {
	for _, p := range ps {
		cand = filterAt(cand, p)
	}
	return cand
}

// TestDifferentialFilterFused: for every encoding and conjunction shape, the
// single-pass filter of the compiled conjunction must equal the AND of
// per-predicate scalar reference filters — the unfused path.
func TestDifferentialFilterFused(t *testing.T) {
	for _, c := range diffMinis(t) {
		for ci, ps := range fusedConjCases() {
			got := c.mc.Filter(pred.CompileConj(ps))
			want := c.filter(ps[0])
			for _, p := range ps[1:] {
				want = positions.And(want, c.filter(p))
			}
			if !positions.Equal(got, want) {
				t.Fatalf("%s Filter(conj) case %d (%v): fused %d positions, unfused %d",
					c.name, ci, ps, got.Count(), want.Count())
			}
		}
	}
}

// TestDifferentialFilterAtFused checks candidate narrowing by a compiled
// conjunction — one pass, whatever its arity — against sequential
// per-predicate scalar FilterAt over every candidate representation.
func TestDifferentialFilterAtFused(t *testing.T) {
	for _, c := range diffMinis(t) {
		cands := diffCandidates(c.mc.Covering())
		for ci, ps := range fusedConjCases() {
			conj := pred.CompileConj(ps)
			for cname, cand := range cands {
				want := sequentialFilterAt(c.filterAt, cand, ps)
				if got := c.mc.FilterAt(cand, conj); !positions.Equal(got, want) {
					t.Fatalf("%s FilterAt(%s, conj) case %d: fused %d positions, sequential %d",
						c.name, cname, ci, got.Count(), want.Count())
				}
			}
		}
	}
}

// filterAtValues draws a window's values: runs one to twelve long over
// [0, diffDomain), so an RLE window has runs to test once and a plain one mixes
// matching and failing values inside every word.
func filterAtValues(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := 0; i < n; {
		v, l := rng.Int63n(diffDomain), 1+rng.Intn(12)
		for ; l > 0 && i < n; l-- {
			vals[i] = v
			i++
		}
	}
	return vals
}

// threeBlockPlain returns the plain window [start, start+len(vals)) split like
// a chunk over three stored blocks: the first head values, then a whole block
// of PlainBlockCap, then the rest.
func threeBlockPlain(start int64, head int, vals []int64) diffMiniCase {
	m := NewPlainMini(positions.Range{Start: start, End: start + int64(len(vals))})
	m.AddSegment(start, vals[:head])
	m.AddSegment(start+int64(head), vals[head:head+PlainBlockCap])
	m.AddSegment(start+int64(head+PlainBlockCap), vals[head+PlainBlockCap:])
	return diffMiniCase{"plain", m, m.filterScalar, m.filterAtScalar}
}

// compressedMinis returns the window [start, start+len(vals)) run-length and
// bit-vector encoded.
func compressedMinis(start int64, vals []int64) []diffMiniCase {
	rle := RLEMiniFromValues(start, vals)
	bv := BVMiniFromValues(start, vals)
	return []diffMiniCase{
		{"rle", rle, rle.filterScalar, rle.filterAtScalar},
		{"bv", bv, bv.filterScalar, func(ps positions.Set, p pred.Predicate) positions.Set {
			return positions.And(bv.filterScalar(p), ps)
		}},
	}
}

// filterAtCandidates builds the candidate forms FilterAt is handed, over the
// window cov: no position, one range over the window, one over part of it,
// many short ranges; bit-strings at 50 %, 2 % and 0.1 % and one reaching past
// the window on both sides; lists of 1, 64 and 2,048 positions.
func filterAtCandidates(cov positions.Range) map[string]positions.Set {
	rng := rand.New(rand.NewSource(23))
	bitmap := func(start, end int64, density float64) *positions.Bitmap {
		bm := positions.NewBitmap(start, end-start)
		for p := start; p < end; p++ {
			if rng.Float64() < density {
				bm.Set(p)
			}
		}
		return bm
	}
	list := func(k int) positions.List {
		l := positions.List{}
		for _, i := range rng.Perm(int(cov.Len()))[:k] {
			l = append(l, cov.Start+int64(i))
		}
		slices.Sort(l)
		return l
	}
	var many positions.Ranges
	for p := cov.Start + 3; p+9 < cov.End; p += 37 + rng.Int63n(40) {
		many = append(many, positions.Range{Start: p, End: p + 1 + rng.Int63n(9)})
	}
	return map[string]positions.Set{
		"empty":     positions.Empty{},
		"range":     positions.NewRanges(cov),
		"halfrange": positions.NewRanges(positions.Range{Start: cov.Start + 1001, End: cov.Start + cov.Len()/2}),
		"ranges":    many,
		"bitmap50":  bitmap(cov.Start, cov.End, 0.5),
		"bitmap02":  bitmap(cov.Start, cov.End, 0.02),
		"bitmap001": bitmap(cov.Start, cov.End, 0.001),
		"pastwin":   bitmap(cov.Start-128, cov.End+300, 0.5),
		"list1":     list(1),
		"list64":    list(64),
		"list2048":  list(2048),
	}
}

// filterAtConjs is every predicate op as a conjunction of one, plus a
// Between, conjunctions with Ne residue and a contradiction.
func filterAtConjs() [][]pred.Predicate {
	var out [][]pred.Predicate
	for _, op := range diffOps {
		for _, p := range diffPredicates(op) {
			out = append(out, []pred.Predicate{p})
		}
	}
	return append(out, fusedConjCases()...)
}

// checkFilterAt holds one FilterAt to its references: the per-predicate
// scalar filterAtScalar applied in turn, and pred.MatchConj at every candidate
// position inside the window, whose values are vals. A list candidate must
// come back a list (or empty) and a bit-string candidate a bit-string (or
// empty).
func checkFilterAt(t *testing.T, c diffMiniCase, vals []int64, cname string, cand positions.Set, ps []pred.Predicate) {
	t.Helper()
	got := c.mc.FilterAt(cand, pred.CompileConj(ps))
	if want := sequentialFilterAt(c.filterAt, cand, ps); !positions.Equal(got, want) {
		t.Fatalf("%s FilterAt(%s, %v): %d positions, scalar %d", c.name, cname, ps, got.Count(), want.Count())
	}
	cov := c.mc.Covering()
	var want int64
	for _, p := range positions.Slice(cand) {
		if cov.Contains(p) && pred.MatchConj(ps, vals[p-cov.Start]) {
			want++
			if !got.Contains(p) {
				t.Fatalf("%s FilterAt(%s, %v): position %d missing", c.name, cname, ps, p)
			}
		}
	}
	if got.Count() != want {
		t.Fatalf("%s FilterAt(%s, %v): %d positions, MatchConj accepts %d", c.name, cname, ps, got.Count(), want)
	}
	if k := got.Kind(); k != positions.KindEmpty && cand.Kind() != positions.KindRanges && k != cand.Kind() {
		t.Fatalf("%s FilterAt(%s, %v): a %v candidate came back a %v", c.name, cname, ps, cand.Kind(), k)
	}
}

// TestDifferentialFilterAt runs FilterAt over a window of three plain blocks
// (and the same window run-length and bit-vector encoded) under every
// candidate form and every conjunction shape, and then sweeps the plain block
// boundary through every bit offset 0…63 of the candidate bit-string's words.
func TestDifferentialFilterAt(t *testing.T) {
	vals := filterAtValues(29, 10000)
	const start = 7488 // a multiple of 64, as chunk windows are
	for _, c := range append(compressedMinis(start, vals), threeBlockPlain(start, 700, vals)) {
		for cname, cand := range filterAtCandidates(c.mc.Covering()) {
			for _, ps := range filterAtConjs() {
				checkFilterAt(t, c, vals, cname, cand, ps)
			}
		}
	}
	conjs := [][]pred.Predicate{
		{pred.LessThan(diffDomain / 2)},
		{pred.AtLeast(diffDomain / 8), pred.NotEquals(vals[640]), pred.NotEquals(vals[700])},
	}
	for off := 0; off < 64; off++ {
		plain := threeBlockPlain(0, 640+off, vals)
		cands := filterAtCandidates(plain.mc.Covering())
		for _, cname := range []string{"bitmap50", "bitmap001", "pastwin"} {
			for _, ps := range conjs {
				checkFilterAt(t, plain, vals, cname, cands[cname], ps)
			}
		}
	}
}

// TestPlainFilterAllocs pins the scan's allocations: over a three-block window
// PlainMini.Filter with a compiled conjunction — one predicate or k — makes
// only its output bit-string (the Bitmap and its words), whatever the
// segments' alignment.
func TestPlainFilterAllocs(t *testing.T) {
	vals := filterAtValues(31, 3*PlainBlockCap)
	m := threeBlockPlain(64, 1000, vals).mc
	for _, ps := range [][]pred.Predicate{
		{pred.LessThan(diffDomain / 2)},
		{pred.LessThan(diffDomain / 2), pred.NotEquals(3), pred.NotEquals(5)},
	} {
		c := pred.CompileConj(ps)
		if a := testing.AllocsPerRun(20, func() { m.Filter(c) }); a > 2 {
			t.Fatalf("Filter(%v): %v allocations a call, want 2 (the output bit-string)", ps, a)
		}
	}
}

// FuzzFilterAtAgainstScalar holds FilterAt over all three encodings to the
// scalar references on candidates and conjunctions the fuzzer shapes: a
// bit-string (any word contents, starting anywhere, reaching past the
// window), a list (any gaps) or ranges (any lengths and gaps); one predicate
// of any op and constants, ANDed with a Ne when asked. The window is three
// plain blocks split at a fuzzed offset.
func FuzzFilterAtAgainstScalar(f *testing.F) {
	vals := filterAtValues(37, 2*PlainBlockCap+900)
	compressed := compressedMinis(0, vals)
	f.Add(uint8(0), uint16(700), uint8(1), int64(500), int64(0), []byte{0xff, 0x55, 0x0f, 0xf0, 0x01, 0x80, 0xaa})
	f.Add(uint8(0), uint16(8190), uint8(7), int64(100), int64(800), []byte("a bit-string over the second block boundary"))
	f.Add(uint8(1), uint16(8100), uint8(4|0x80), int64(250), int64(0), []byte{0, 0, 0, 5, 0, 0, 200, 1, 0})
	f.Add(uint8(2), uint16(16000), uint8(2), int64(900), int64(0), []byte{0, 200, 0, 255, 3, 1, 0, 1, 0, 90})
	f.Fuzz(func(t *testing.T, kind uint8, at uint16, op uint8, a, b int64, data []byte) {
		head := 1 + int(at)%(len(vals)-PlainBlockCap-1)
		minis := append([]diffMiniCase{threeBlockPlain(0, head, vals)}, compressed...)
		cov := minis[0].mc.Covering()
		pos := int64(at) % (cov.End + 200)
		var cand positions.Set
		switch kind % 3 {
		case 0: // bit-string: data is its bits
			bm := positions.NewBitmap(pos&^63, 8*int64(len(data)))
			for i := int64(0); i < bm.NBits(); i++ {
				if data[i/8]>>uint(i%8)&1 == 1 {
					bm.Set(bm.Start() + i)
				}
			}
			cand = bm
		case 1: // list: data is the gaps between positions, less one
			l := positions.List{}
			for _, gap := range data {
				l = append(l, pos)
				pos += 1 + int64(gap)
			}
			cand = l
		default: // ranges: data is (length less one, gap less one) pairs
			var rs positions.Ranges
			for i := 0; i+1 < len(data); i += 2 {
				rs = append(rs, positions.Range{Start: pos, End: pos + 1 + int64(data[i])})
				pos += 2 + int64(data[i]) + int64(data[i+1])
			}
			cand = rs
		}
		ps := []pred.Predicate{{Op: pred.Op(op&0x7f) % (pred.None + 1), A: a, B: b}}
		if op&0x80 != 0 {
			ps = append(ps, pred.NotEquals(b))
		}
		for _, c := range minis {
			checkFilterAt(t, c, vals, "fuzzed", cand, ps)
		}
	})
}
