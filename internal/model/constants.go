// Package model implements the paper's analytical cost model (Section 3):
// the operator cost formulas of Figures 1–6 over the notation of Table 1
// (cost.go; the join's Section 4.3 terms in join.go), the constants of
// Table 2 and their refit to this host (calibrate.go), and one composition
// of them — Price (price.go) walks the physical plan a strategy's builder
// assembled and charges each node its formula from the column statistics the
// node carries. The plan tree is the
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
}

// Paper holds the constants of Table 2 (Pentium 4 era). DB.Open installs
// them; Calibrate refits the CPU constants to this host.
var Paper = Constants{
	BIC:    0.020,
	TICTUP: 0.065,
	TICCOL: 0.014,
	FC:     0.009,
	PF:     1,
	SEEK:   2500,
	READ:   1000,
}
