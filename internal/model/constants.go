// Package model implements the paper's analytical cost model (Section 3):
// the operator cost formulas of Figures 1–6 over the notation of Table 1
// (cost.go; the join's Section 4.3 terms in join.go), the measured constants
// of Table 2, and one composition of them — Price (price.go) walks the
// physical plan a strategy's builder assembled and charges each node its
// formula from the column statistics the node carries. The plan tree is the
// model's only input: the advisor the paper motivates ("an analytical model
// that can be used, for example, in a query optimizer to select a
// materialization strategy") is "build each strategy's plan, price it, take
// the cheapest", and the admission sizer, EXPLAIN and calibration read the
// same walk.
//
// All costs are in microseconds (as in Table 2). CPU and I/O components are
// reported separately; I/O is the modelled disk time and is zero for
// buffer-resident fractions (the F term).
package model

import (
	"time"
)

// Constants are the machine-specific cost-model constants of Table 2.
type Constants struct {
	// BIC is the CPU time of a getNext() call on a block iterator, µs.
	BIC float64
	// TICTUP is the CPU time of a getNext() call on a tuple iterator, µs.
	TICTUP float64
	// TICCOL is the CPU time of a getNext() call on a column iterator, µs.
	TICCOL float64
	// FC is the cost of a function call, µs.
	FC float64
	// PF is the prefetch size in blocks.
	PF float64
	// SEEK is the disk seek time, µs.
	SEEK float64
	// READ is the time to read one block from disk, µs.
	READ float64
	// WordSize is the number of positions intersected per instruction when
	// ANDing bit-string position lists. The paper's hardware used 32; this
	// implementation uses 64-bit words.
	WordSize float64
}

// Paper holds the constants of Table 2 (Pentium 4 era), with the paper's
// 32-bit word size.
var Paper = Constants{
	BIC:      0.020,
	TICTUP:   0.065,
	TICCOL:   0.014,
	FC:       0.009,
	PF:       1,
	SEEK:     2500,
	READ:     1000,
	WordSize: 32,
}

// Default returns the constants used when none are calibrated: the paper's
// Table 2 values with a 64-bit word size.
func Default() Constants {
	c := Paper
	c.WordSize = 64
	return c
}

//go:noinline
func sink(x int64) int64 { return x + 1 }

// MeasureConstants measures BIC, TICTUP, TICCOL and FC on the host machine
// by running the small code segments each constant stands for (as the paper
// did: "obtained by running the small segments of code that only performed
// the variable in question"). SEEK/READ/PF keep their Table 2 defaults
// since experiments run through the OS page cache. Calibrate (calibrate.go)
// is the complementary top-down refit: it fits the same constants to whole
// observed executions instead of isolated micro-segments.
func MeasureConstants() Constants {
	c := Default()
	c.FC = measureFC()
	c.TICCOL = measureTICCOL()
	c.TICTUP = measureTICTUP()
	c.BIC = measureBIC()
	return c
}

const calN = 1 << 20

// measureFC times a non-inlinable function call.
func measureFC() float64 {
	var acc int64
	start := time.Now()
	for i := int64(0); i < calN; i++ {
		acc = sink(acc)
	}
	el := time.Since(start)
	_ = acc
	return float64(el.Nanoseconds()) / float64(calN) / 1e3
}

// measureTICCOL times per-value iteration over a column-oriented vector.
func measureTICCOL() float64 {
	vals := make([]int64, calN)
	for i := range vals {
		vals[i] = int64(i)
	}
	var acc int64
	start := time.Now()
	for _, v := range vals {
		acc += v
	}
	el := time.Since(start)
	_ = acc
	return float64(el.Nanoseconds()) / float64(calN) / 1e3
}

// measureTICTUP times per-tuple iteration: gathering a two-attribute tuple
// from parallel arrays through a tuple-at-a-time interface.
func measureTICTUP() float64 {
	const n = calN / 4
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(i) * 2
	}
	type tuple struct{ x, y int64 }
	var acc int64
	next := func(i int) tuple { return tuple{a[i], b[i]} } // tuple iterator getNext
	start := time.Now()
	for i := 0; i < n; i++ {
		t := next(i)
		acc += t.x + t.y
	}
	el := time.Since(start)
	_ = acc
	return float64(el.Nanoseconds()) / float64(n) / 1e3
}

// blockIter is a minimal block iterator matching the engine's dispatch
// shape (an interface method call per block).
type blockIter interface{ next() (int64, bool) }

type countingIter struct{ i, n int64 }

func (it *countingIter) next() (int64, bool) {
	if it.i >= it.n {
		return 0, false
	}
	it.i++
	return it.i, true
}

// measureBIC times a getNext() call through a block-iterator interface.
func measureBIC() float64 {
	var it blockIter = &countingIter{n: calN}
	var acc int64
	start := time.Now()
	for {
		v, ok := it.next()
		if !ok {
			break
		}
		acc += v
	}
	el := time.Since(start)
	_ = acc
	return float64(el.Nanoseconds()) / float64(calN) / 1e3
}
