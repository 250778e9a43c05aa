package pred

import "slices"

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
// k-ary, and CompileConj then composes the compiled kernels tile-at-a-time:
// values stream through all k kernels while they sit in L1, and the result
// words are ANDed without leaving the stack.

// fusedTileVals is the number of values a fused kernel pushes through all
// member kernels before advancing: 2048 values (16KB) keep the tile resident
// in L1 across the k passes, and the 32 words of the held conjunction live on
// the stack.
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

// Conj is a predicate conjunction over one column, compiled once — when a
// plan is built — and applied to every chunk of every morsel: the simplified
// predicates, their one-pass kernel and the accepted set they describe, one
// closed interval minus the values its Ne residue excludes. It is never
// modified after CompileConj returns, so concurrent runs of one plan share it.
type Conj struct {
	// Preds is the SimplifyConj form, never empty: interval predicates
	// collapse into one, so only Ne residue keeps it k-ary.
	Preds []Predicate
	// Kernel evaluates every predicate of Preds over a vector in one pass.
	Kernel Kernel

	lo     int64
	span   uint64 // hi - lo
	except []int64
	empty  bool
}

// CompileConj simplifies and compiles the conjunction ps; an empty ps accepts
// every value. After simplification the common interval conjunction compiles
// to a single ordinary kernel; a residual k-ary conjunction streams tiles of
// values through the k member kernels while the tile is L1-resident, AND-ing
// the comparison words — no per-predicate bitmap is materialized.
func CompileConj(ps []Predicate) *Conj {
	ps = SimplifyConj(ps)
	c := &Conj{Preds: ps, lo: minInt64, span: ^uint64(0)}
	ks := make([]Kernel, len(ps))
	for i, p := range ps {
		ks[i] = Compile(p)
		if p.Op == Ne {
			c.except = append(c.except, p.A)
		} else if lo, hi, ok := p.Interval(); ok {
			c.lo, c.span = lo, uint64(hi-lo)
		} else {
			c.empty = true
		}
	}
	if len(ks) == 1 {
		c.Kernel = ks[0]
		return c
	}
	c.Kernel = func(vals []int64, out []uint64) {
		// Every member kernel writes where the result ends up; the conjunction
		// so far is held in acc meanwhile. acc is never handed to a kernel — a
		// func value the compiler cannot see through — so it stays on the stack.
		var acc [fusedTileVals / 64]uint64
		for k := 0; len(vals) > 0; {
			n := min(len(vals), fusedTileVals)
			nw := (n + 63) / 64
			dst := out[k : k+nw]
			ks[0](vals[:n], dst)
			for _, kr := range ks[1:] {
				copy(acc[:nw], dst)
				kr(vals[:n], dst)
				for i, w := range acc[:nw] {
					dst[i] &= w
				}
			}
			vals = vals[n:]
			k += nw
		}
	}
	return c
}

// Bounds returns the conjunction's accepted set as the closed interval
// [lo, hi] minus the values in except, all of which lie strictly inside it;
// ok=false when it accepts nothing.
func (c *Conj) Bounds() (lo, hi int64, except []int64, ok bool) {
	return c.lo, c.lo + int64(c.span), c.except, !c.empty
}

// Accepts reports whether v satisfies the conjunction: one unsigned compare
// against the interval (the kernel's test) and a scan of the exceptions. It
// is the test for values that arrive one at a time — a run's, a listed
// position's.
func (c *Conj) Accepts(v int64) bool {
	return !c.empty && uint64(v-c.lo) <= c.span && !slices.Contains(c.except, v)
}

// Compiled returns c itself.
func (c *Conj) Compiled() *Conj { return c }

// Compiled compiles p as a conjunction of one.
func (p Predicate) Compiled() *Conj { return CompileConj([]Predicate{p}) }

// MatchConj reports whether v satisfies every predicate in ps (the scalar
// reference for compiled conjunctions).
func MatchConj(ps []Predicate, v int64) bool {
	for _, p := range ps {
		if !p.Match(v) {
			return false
		}
	}
	return true
}
