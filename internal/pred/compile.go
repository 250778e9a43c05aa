package pred

// A compiled kernel evaluates a predicate over a vector of values with no
// per-value operator dispatch and writes 64 results at a time as one uint64
// bitmap word, so filter output lands directly in the bit-string
// representation the position layer uses (MorphStore-style format-direct
// operators).
//
// Every SARGable predicate but Ne accepts one closed interval [lo, hi], and Ne
// accepts the interval that wraps around the int64 range from a+1 to a-1, so
// one kernel body serves every operator: v lies in [lo, hi] iff
// uint64(v-lo) <= uint64(hi-lo). The subtraction wraps every value outside
// the interval past the span, so one unsigned compare tests both bounds.
// Signed order needs no sign-bit flip here: v-lo is taken modulo 2^64 either
// way, and the distance from lo is all the compare reads.

// Kernel is a compiled vectorized predicate. Calling k(vals, out) evaluates
// the predicate over vals and stores the results as a little-endian bitmap:
// bit i of out[i/64] is set iff vals[i] matches. out must hold at least
// (len(vals)+63)/64 words; exactly that many words are fully overwritten,
// with trailing bits of the last word zeroed.
type Kernel func(vals []int64, out []uint64)

// Compile returns the vectorized kernel for p. The returned kernel is
// reusable and safe for concurrent use.
func Compile(p Predicate) Kernel {
	if p.Op == Ne {
		return kernelInterval(p.A+1, p.A-1) // every value but a
	}
	lo, hi, ok := p.Interval()
	switch {
	case !ok:
		return kernelNone
	case lo == minInt64 && hi == maxInt64:
		return kernelAll
	default:
		return kernelInterval(lo, hi)
	}
}

const (
	minInt64 = int64(-1) << 63
	maxInt64 = int64(^uint64(0) >> 1)
)

// kernelInterval tests every value against [lo, hi] with one unsigned
// compare. The full-word loop evaluates 64 values per output word through
// four independent 16-bit accumulators: a single accumulator serializes on its
// own OR chain (~2.3 cycles/value measured); four chains recombined with three
// shift-ORs at the end let the CPU overlap compare/OR across lanes (~1.1
// cycles/value).
func kernelInterval(lo, hi int64) Kernel {
	span := uint64(hi - lo)
	return func(vals []int64, out []uint64) {
		k := 0
		for len(vals) >= 64 {
			c := vals[:64:64]
			var w0, w1, w2, w3 uint64
			for j := 0; j < 16; j++ {
				if uint64(c[j]-lo) <= span {
					w0 |= 1 << uint(j)
				}
				if uint64(c[16+j]-lo) <= span {
					w1 |= 1 << uint(j)
				}
				if uint64(c[32+j]-lo) <= span {
					w2 |= 1 << uint(j)
				}
				if uint64(c[48+j]-lo) <= span {
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
				if uint64(v-lo) <= span {
					w |= 1 << uint(j)
				}
			}
			out[k] = w
		}
	}
}

// kernelAll and kernelNone read no values: a scan without a predicate only
// sets or clears its words.
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

// Interval returns the closed accepted value interval [lo, hi] of an
// interval-shaped predicate, with lo <= hi, or ok=false for predicates whose
// accepted set is not one nonempty interval (Ne, None, and empty intervals
// such as Lt(MinInt64) or a Between with B <= A). It powers the compiled
// kernel, the conjunction's bounds and the coordinator's shard pruning.
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
		if p.B <= p.A { // empty; covers B == MinInt64 too
			return 0, 0, false
		}
		return p.A, p.B - 1, true
	default:
		return 0, 0, false
	}
}
