// Package pred implements the SARGable predicates accepted by every data
// source in the engine (Selinger et al.'s "search arguments", as referenced
// in Section 1.1 of the paper). A predicate is a simple comparison against
// one or two int64 constants, which is exactly the class of predicates the
// paper's data sources push into column scans.
package pred

import "fmt"

// Op is a comparison operator.
type Op uint8

const (
	// All matches every value (the absent-predicate case).
	All Op = iota
	// Lt matches v < A.
	Lt
	// Le matches v <= A.
	Le
	// Eq matches v == A.
	Eq
	// Ne matches v != A.
	Ne
	// Ge matches v >= A.
	Ge
	// Gt matches v > A.
	Gt
	// Between matches A <= v < B (half-open, matching position-range
	// conventions elsewhere in the engine).
	Between
	// None matches no value (useful for tests and degenerate plans).
	None
)

func (o Op) String() string {
	switch o {
	case All:
		return "all"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "="
	case Ne:
		return "!="
	case Ge:
		return ">="
	case Gt:
		return ">"
	case Between:
		return "between"
	case None:
		return "none"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Predicate is a SARGable single-column predicate. The zero Predicate
// matches every value.
type Predicate struct {
	Op Op
	A  int64
	B  int64 // upper bound for Between
}

// MatchAll is the predicate that accepts every value.
var MatchAll = Predicate{Op: All}

// LessThan returns the predicate v < a.
func LessThan(a int64) Predicate { return Predicate{Op: Lt, A: a} }

// AtMost returns the predicate v <= a.
func AtMost(a int64) Predicate { return Predicate{Op: Le, A: a} }

// Equals returns the predicate v == a.
func Equals(a int64) Predicate { return Predicate{Op: Eq, A: a} }

// NotEquals returns the predicate v != a.
func NotEquals(a int64) Predicate { return Predicate{Op: Ne, A: a} }

// AtLeast returns the predicate v >= a.
func AtLeast(a int64) Predicate { return Predicate{Op: Ge, A: a} }

// GreaterThan returns the predicate v > a.
func GreaterThan(a int64) Predicate { return Predicate{Op: Gt, A: a} }

// InRange returns the predicate a <= v < b.
func InRange(a, b int64) Predicate { return Predicate{Op: Between, A: a, B: b} }

// Match reports whether v satisfies p.
func (p Predicate) Match(v int64) bool {
	switch p.Op {
	case All:
		return true
	case Lt:
		return v < p.A
	case Le:
		return v <= p.A
	case Eq:
		return v == p.A
	case Ne:
		return v != p.A
	case Ge:
		return v >= p.A
	case Gt:
		return v > p.A
	case Between:
		return v >= p.A && v < p.B
	case None:
		return false
	default:
		return false
	}
}

// Trivial reports whether p matches everything.
func (p Predicate) Trivial() bool { return p.Op == All }

func (p Predicate) String() string {
	switch p.Op {
	case All:
		return "true"
	case None:
		return "false"
	case Between:
		return fmt.Sprintf("in [%d,%d)", p.A, p.B)
	default:
		return fmt.Sprintf("%s %d", p.Op, p.A)
	}
}

// Selectivity estimates the fraction of values in [lo, hi] (inclusive,
// assumed uniform) that satisfy p: the size of p's interval within [lo, hi]
// over the size of [lo, hi], or 1 - 1/n for a Ne inside it. It is the SF term
// of the paper's analytical model when column min/max statistics are
// available.
func (p Predicate) Selectivity(lo, hi int64) float64 {
	if hi < lo {
		return 0
	}
	n := float64(hi - lo + 1)
	if p.Op == Ne {
		if p.A < lo || p.A > hi {
			return 1
		}
		return 1 - 1/n
	}
	l, h, ok := p.Interval()
	l, h = max(l, lo), min(h, hi)
	if !ok || h < l {
		return 0
	}
	return float64(h-l+1) / n
}
