package pred

// This file implements multi-predicate fusion: evaluating a conjunction of
// k SARGable predicates over the same column in a single pass over the data.
// Without fusion, k predicates over one column cost k scans producing k
// position bitmaps that are then ANDed; a fused kernel loads each value once,
// evaluates every predicate, and ANDs the comparison words in registers, so
// no intermediate bitmap is ever materialized.
//
// Fusion happens in two stages. SimplifyConj first reduces the conjunction
// algebraically: every interval-shaped predicate (Lt/Le/Eq/Ge/Gt/Between/All)
// intersects into a single interval, so the common case — a range query
// written as two half-bounds — collapses to ONE compiled kernel, which is the
// biggest win available. Only non-interval residue (Ne) keeps the conjunction
// k-ary, and CompileFused then composes the compiled kernels tile-at-a-time:
// values stream through all k kernels while they sit in L1, and the result
// words are ANDed on the stack.

// fusedTileVals is the number of values a fused kernel pushes through all
// member kernels before advancing: 2048 values (16KB) keep the tile resident
// in L1 across the k passes, and the 32 result words of the scratch tile live
// on the stack.
const fusedTileVals = 2048

// SimplifyConj reduces a predicate conjunction to a minimal equivalent list:
// interval-shaped predicates are intersected into at most one predicate,
// trivial conjuncts are dropped, Ne conjuncts at the interval boundary shrink
// the interval, and any contradiction collapses to a single None. The result
// is never empty and preserves the conjunction's exact accepted set.
func SimplifyConj(ps []Predicate) []Predicate {
	none := []Predicate{{Op: None}}
	lo, hi := minInt64, maxInt64
	var nes []int64
	for _, p := range ps {
		if p.Op == All {
			continue
		}
		if p.Op == Ne {
			nes = append(nes, p.A)
			continue
		}
		l, h, ok := p.Interval()
		if !ok {
			// None, or a degenerate empty interval (Lt minInt64 etc).
			return none
		}
		if l > lo {
			lo = l
		}
		if h < hi {
			hi = h
		}
	}
	if lo > hi {
		return none
	}
	// Ne conjuncts at the interval boundary shrink the interval; iterate to a
	// fixed point so chains like [3,5] != 3 != 4 collapse fully.
	for changed := true; changed; {
		changed = false
		for i, a := range nes {
			if a == lo {
				if lo == maxInt64 {
					return none
				}
				lo++
				nes[i] = nes[len(nes)-1]
				nes = nes[:len(nes)-1]
				changed = true
				break
			}
			if a == hi {
				if hi == minInt64 {
					return none
				}
				hi--
				nes[i] = nes[len(nes)-1]
				nes = nes[:len(nes)-1]
				changed = true
				break
			}
		}
		if lo > hi {
			return none
		}
	}
	var out []Predicate
	if p, ok := intervalPredicate(lo, hi); ok {
		out = append(out, p)
	}
	for _, a := range nes {
		if a < lo || a > hi {
			continue // vacuously true given the interval
		}
		out = append(out, NotEquals(a))
	}
	if len(out) == 0 {
		return []Predicate{MatchAll}
	}
	return out
}

// intervalPredicate returns the canonical predicate accepting exactly
// [lo, hi], or ok=false when the interval is unbounded on both sides (i.e.
// the predicate would be All and can be dropped).
func intervalPredicate(lo, hi int64) (Predicate, bool) {
	switch {
	case lo == minInt64 && hi == maxInt64:
		return Predicate{}, false
	case lo == hi:
		return Equals(lo), true
	case lo == minInt64:
		return AtMost(hi), true
	case hi == maxInt64:
		return AtLeast(lo), true
	default:
		return InRange(lo, hi+1), true // hi < maxInt64 here, no overflow
	}
}

// CompileFused returns one vectorized kernel evaluating the conjunction of
// ps in a single pass. After algebraic simplification the common interval
// conjunction compiles to a single ordinary kernel; a residual k-ary
// conjunction streams tiles of values through the k member kernels while the
// tile is L1-resident, AND-ing the comparison words on the stack — no
// per-predicate bitmap is materialized. The returned kernel follows the
// Kernel contract (fully overwrites its output words) and is safe for
// concurrent use.
func CompileFused(ps []Predicate) Kernel {
	ps = SimplifyConj(ps)
	if len(ps) == 1 {
		return Compile(ps[0])
	}
	ks := make([]Kernel, len(ps))
	for i, p := range ps {
		ks[i] = Compile(p)
	}
	return func(vals []int64, out []uint64) {
		var tmp [fusedTileVals / 64]uint64
		k := 0
		for len(vals) > 0 {
			n := len(vals)
			if n > fusedTileVals {
				n = fusedTileVals
			}
			nw := (n + 63) / 64
			ks[0](vals[:n], out[k:k+nw])
			for _, kr := range ks[1:] {
				kr(vals[:n], tmp[:nw])
				for i, w := range tmp[:nw] {
					out[k+i] &= w
				}
			}
			vals = vals[n:]
			k += nw
		}
	}
}

// MatchConj reports whether v satisfies every predicate in ps (the scalar
// reference for the fused paths).
func MatchConj(ps []Predicate, v int64) bool {
	for _, p := range ps {
		if !p.Match(v) {
			return false
		}
	}
	return true
}
