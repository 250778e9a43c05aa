package pred

import (
	"math/rand"
	"testing"
)

// compilePreds enumerates predicates across every op, including the integer
// boundary constants where an interval's bounds or span could wrap.
func compilePreds() []Predicate {
	consts := []int64{minInt64, minInt64 + 1, -100, -1, 0, 1, 3, 100, maxInt64 - 1, maxInt64}
	preds := []Predicate{MatchAll, {Op: None}}
	for _, a := range consts {
		for _, op := range []Op{Lt, Le, Eq, Ne, Ge, Gt} {
			preds = append(preds, Predicate{Op: op, A: a})
		}
		for _, b := range consts {
			preds = append(preds, Predicate{Op: Between, A: a, B: b})
		}
	}
	return preds
}

func compileVals(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		switch rng.Intn(4) {
		case 0:
			vals[i] = rng.Int63n(7) - 3 // small values near the test constants
		case 1:
			vals[i] = []int64{minInt64, minInt64 + 1, maxInt64 - 1, maxInt64, 100, -100}[rng.Intn(6)]
		default:
			vals[i] = rng.Int63() - rng.Int63()
		}
	}
	return vals
}

// TestCompileKernelMatchesScalar checks bit-for-bit agreement between the
// compiled word kernel and the interpreted Predicate.Match, across vector
// lengths that exercise the full-word loop, the partial tail, and the empty
// input.
func TestCompileKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200, 1024} {
		vals := compileVals(rng, n)
		out := make([]uint64, (n+63)/64+1)
		for _, p := range compilePreds() {
			for i := range out {
				out[i] = ^uint64(0) // poison: kernels must overwrite their words
			}
			k := Compile(p)
			k(vals, out)
			for i, v := range vals {
				want := p.Match(v)
				got := out[i/64]&(1<<uint(i%64)) != 0
				if got != want {
					t.Fatalf("n=%d pred=%v vals[%d]=%d: kernel=%v match=%v", n, p, i, v, got, want)
				}
			}
			// Trailing bits of the last written word must be zero.
			if n%64 != 0 {
				if hi := out[n/64] >> uint(n%64); hi != 0 {
					t.Fatalf("n=%d pred=%v: trailing bits set: %#x", n, p, hi)
				}
			}
			// The word beyond the kernel's output region must be untouched.
			if nw := (n + 63) / 64; out[nw] != ^uint64(0) {
				t.Fatalf("n=%d pred=%v: kernel wrote past its output region", n, p)
			}
		}
	}
}

// TestCompiledAcceptsMatchesScalar checks the scalar compiled form: a
// predicate compiled as a conjunction of one accepts exactly what Match does.
func TestCompiledAcceptsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vals := compileVals(rng, 512)
	for _, p := range compilePreds() {
		c := p.Compiled()
		for _, v := range vals {
			if c.Accepts(v) != p.Match(v) {
				t.Fatalf("pred=%v v=%d: Accepts=%v match=%v", p, v, c.Accepts(v), p.Match(v))
			}
		}
	}
}

// TestIntervalMatchesScalar checks that the accepted interval, when one
// exists, is nonempty and agrees with Match at and around its endpoints, and
// that non-interval predicates are reported as such.
func TestIntervalMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	vals := compileVals(rng, 512)
	for _, p := range compilePreds() {
		lo, hi, ok := p.Interval()
		if !ok {
			if p.Op != Ne && p.Op != None {
				// The only inherently non-interval ops are Ne and None;
				// everything else may opt out only when its accepted set is
				// empty (wrap guards), in which case Match must reject all.
				for _, v := range vals {
					if p.Match(v) {
						t.Fatalf("pred=%v: no interval but Match(%d)=true", p, v)
					}
				}
			}
			continue
		}
		if lo > hi {
			t.Fatalf("pred=%v: ok interval [%d,%d] is reversed", p, lo, hi)
		}
		for _, v := range vals {
			if in := v >= lo && v <= hi; in != p.Match(v) {
				t.Fatalf("pred=%v interval=[%d,%d] v=%d: interval=%v match=%v", p, lo, hi, v, in, p.Match(v))
			}
		}
	}
}
