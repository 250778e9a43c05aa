package pred

// This file implements predicate compilation: turning a Predicate into a
// specialized tight-loop kernel with no per-value operator dispatch. The
// engine's scan loops previously called Predicate.Match — a 9-way switch —
// once per value; a compiled kernel hoists the switch out of the loop
// entirely and emits 64 comparison results at a time as one uint64 bitmap
// word, so filter output lands directly in the bit-string representation
// the position layer uses (MorphStore-style format-direct operators).

// Kernel is a compiled vectorized predicate. Calling k(vals, out) evaluates
// the predicate over vals and stores the results as a little-endian bitmap:
// bit i of out[i/64] is set iff vals[i] matches. out must hold at least
// (len(vals)+63)/64 words; exactly that many words are fully overwritten,
// with trailing bits of the last word zeroed.
type Kernel func(vals []int64, out []uint64)

// Matcher is a compiled scalar predicate: one branch per call, no operator
// switch. It is the right shape where values arrive one at a time: sparse
// position filtering and run-at-a-time kernels. A loop that has a whole vector
// of values in hand — a scan, or the tuple domain's gather-then-filter (DS4)
// and SPC — runs a Kernel over it instead.
type Matcher func(int64) bool

// Compile returns the vectorized kernel for p. The returned kernel is
// reusable and safe for concurrent use.
func Compile(p Predicate) Kernel {
	switch p.Op {
	case All:
		return kernelAll
	case None:
		return kernelNone
	case Lt:
		return kernelLt(p.A)
	case Le:
		if p.A == maxInt64 {
			return kernelAll
		}
		return kernelLt(p.A + 1) // v <= a  ⇔  v < a+1
	case Eq:
		return kernelEq(p.A)
	case Ne:
		return kernelNe(p.A)
	case Ge:
		return kernelGe(p.A)
	case Gt:
		if p.A == maxInt64 {
			return kernelNone
		}
		return kernelGe(p.A + 1) // v > a  ⇔  v >= a+1
	case Between:
		return kernelBetween(p.A, p.B)
	default:
		return kernelNone
	}
}

const (
	minInt64 = int64(-1) << 63
	maxInt64 = int64(^uint64(0) >> 1)
)

// The full-word loops below all share one shape: 64 values per output word,
// evaluated through four independent 16-bit accumulators. A single
// accumulator serializes on its own OR chain (~2.3 cycles/value measured);
// four independent chains recombined with three shift-ORs at the end let the
// CPU overlap compare/OR across lanes (~1.1 cycles/value), which is where
// the kernels' 2-5x win over the per-value dispatch loop comes from.

func kernelLt(a int64) Kernel {
	if a == minInt64 {
		return kernelNone // Lt(MinInt64) matches nothing
	}
	return func(vals []int64, out []uint64) {
		k := 0
		for len(vals) >= 64 {
			c := vals[:64:64]
			var w0, w1, w2, w3 uint64
			for j := 0; j < 16; j++ {
				if c[j] < a {
					w0 |= 1 << uint(j)
				}
				if c[16+j] < a {
					w1 |= 1 << uint(j)
				}
				if c[32+j] < a {
					w2 |= 1 << uint(j)
				}
				if c[48+j] < a {
					w3 |= 1 << uint(j)
				}
			}
			out[k] = w0 | w1<<16 | w2<<32 | w3<<48
			k++
			vals = vals[64:]
		}
		if len(vals) > 0 {
			var w uint64
			for j, v := range vals {
				if v < a {
					w |= 1 << uint(j)
				}
			}
			out[k] = w
		}
	}
}

func kernelGe(a int64) Kernel {
	return func(vals []int64, out []uint64) {
		k := 0
		for len(vals) >= 64 {
			c := vals[:64:64]
			var w0, w1, w2, w3 uint64
			for j := 0; j < 16; j++ {
				if c[j] >= a {
					w0 |= 1 << uint(j)
				}
				if c[16+j] >= a {
					w1 |= 1 << uint(j)
				}
				if c[32+j] >= a {
					w2 |= 1 << uint(j)
				}
				if c[48+j] >= a {
					w3 |= 1 << uint(j)
				}
			}
			out[k] = w0 | w1<<16 | w2<<32 | w3<<48
			k++
			vals = vals[64:]
		}
		if len(vals) > 0 {
			var w uint64
			for j, v := range vals {
				if v >= a {
					w |= 1 << uint(j)
				}
			}
			out[k] = w
		}
	}
}

func kernelEq(a int64) Kernel {
	return func(vals []int64, out []uint64) {
		k := 0
		for len(vals) >= 64 {
			c := vals[:64:64]
			var w0, w1, w2, w3 uint64
			for j := 0; j < 16; j++ {
				if c[j] == a {
					w0 |= 1 << uint(j)
				}
				if c[16+j] == a {
					w1 |= 1 << uint(j)
				}
				if c[32+j] == a {
					w2 |= 1 << uint(j)
				}
				if c[48+j] == a {
					w3 |= 1 << uint(j)
				}
			}
			out[k] = w0 | w1<<16 | w2<<32 | w3<<48
			k++
			vals = vals[64:]
		}
		if len(vals) > 0 {
			var w uint64
			for j, v := range vals {
				if v == a {
					w |= 1 << uint(j)
				}
			}
			out[k] = w
		}
	}
}

func kernelNe(a int64) Kernel {
	return func(vals []int64, out []uint64) {
		k := 0
		for len(vals) >= 64 {
			c := vals[:64:64]
			var w0, w1, w2, w3 uint64
			for j := 0; j < 16; j++ {
				if c[j] != a {
					w0 |= 1 << uint(j)
				}
				if c[16+j] != a {
					w1 |= 1 << uint(j)
				}
				if c[32+j] != a {
					w2 |= 1 << uint(j)
				}
				if c[48+j] != a {
					w3 |= 1 << uint(j)
				}
			}
			out[k] = w0 | w1<<16 | w2<<32 | w3<<48
			k++
			vals = vals[64:]
		}
		if len(vals) > 0 {
			var w uint64
			for j, v := range vals {
				if v != a {
					w |= 1 << uint(j)
				}
			}
			out[k] = w
		}
	}
}

func kernelBetween(a, b int64) Kernel {
	if b <= a {
		return kernelNone // empty interval
	}
	// a <= v < b as ONE unsigned compare: XOR-ing the sign bit maps int64
	// order onto uint64 order, so v lies in [a, b) iff u(v)-u(a) < u(b)-u(a)
	// (out-of-range v wraps the subtraction past the span). The compound
	// `v >= a && v < b` costs two data-dependent branches per value — ~3x
	// slower on random data than the single-compare kernels; this form is a
	// single compare like them.
	const sign = uint64(1) << 63
	ua := uint64(a) ^ sign
	span := (uint64(b) ^ sign) - ua
	return func(vals []int64, out []uint64) {
		k := 0
		for len(vals) >= 64 {
			c := vals[:64:64]
			var w0, w1, w2, w3 uint64
			for j := 0; j < 16; j++ {
				if (uint64(c[j])^sign)-ua < span {
					w0 |= 1 << uint(j)
				}
				if (uint64(c[16+j])^sign)-ua < span {
					w1 |= 1 << uint(j)
				}
				if (uint64(c[32+j])^sign)-ua < span {
					w2 |= 1 << uint(j)
				}
				if (uint64(c[48+j])^sign)-ua < span {
					w3 |= 1 << uint(j)
				}
			}
			out[k] = w0 | w1<<16 | w2<<32 | w3<<48
			k++
			vals = vals[64:]
		}
		if len(vals) > 0 {
			var w uint64
			for j, v := range vals {
				if (uint64(v)^sign)-ua < span {
					w |= 1 << uint(j)
				}
			}
			out[k] = w
		}
	}
}

func kernelAll(vals []int64, out []uint64) {
	n := len(vals)
	k := 0
	for ; n >= 64; n -= 64 {
		out[k] = ^uint64(0)
		k++
	}
	if n > 0 {
		out[k] = (1 << uint(n)) - 1
	}
}

func kernelNone(vals []int64, out []uint64) {
	for k := 0; k < (len(vals)+63)/64; k++ {
		out[k] = 0
	}
}

// CompileMatcher returns the scalar compiled form of p.
func CompileMatcher(p Predicate) Matcher {
	switch p.Op {
	case All:
		return func(int64) bool { return true }
	case Lt:
		a := p.A
		return func(v int64) bool { return v < a }
	case Le:
		a := p.A
		return func(v int64) bool { return v <= a }
	case Eq:
		a := p.A
		return func(v int64) bool { return v == a }
	case Ne:
		a := p.A
		return func(v int64) bool { return v != a }
	case Ge:
		a := p.A
		return func(v int64) bool { return v >= a }
	case Gt:
		a := p.A
		return func(v int64) bool { return v > a }
	case Between:
		a, b := p.A, p.B
		return func(v int64) bool { return v >= a && v < b }
	default:
		return func(int64) bool { return false }
	}
}

// Interval returns the closed accepted value interval [lo, hi] of an
// interval-shaped predicate, or ok=false for predicates whose accepted set
// is not a single contiguous interval (Ne, None, and degenerate empty
// intervals). It powers run-at-a-time kernels over RLE data, the contiguous
// distinct-value range lookup over bit-vector data, and the storage layer's
// zone-map skipping.
func (p Predicate) Interval() (lo, hi int64, ok bool) {
	switch p.Op {
	case All:
		return minInt64, maxInt64, true
	case Lt:
		if p.A == minInt64 { // empty interval; avoid underflow
			return 0, 0, false
		}
		return minInt64, p.A - 1, true
	case Le:
		return minInt64, p.A, true
	case Eq:
		return p.A, p.A, true
	case Ge:
		return p.A, maxInt64, true
	case Gt:
		if p.A == maxInt64 { // empty interval; avoid overflow
			return 0, 0, false
		}
		return p.A + 1, maxInt64, true
	case Between:
		if p.B == minInt64 {
			return 0, 0, false
		}
		return p.A, p.B - 1, true
	default:
		return 0, 0, false
	}
}
