package model

// This file implements the operator cost formulas of Figures 1–6, using the
// Table 1 notation:
//
//	|Ci|        number of disk blocks of column i      -> ColumnStats.Blocks
//	||Ci||      number of tuples of column i           -> ColumnStats.Tuples
//	||POSLIST|| number of positions in a position list
//	F           fraction of the column in the buffer pool
//	SF          predicate selectivity factor
//	RL          average run length (RLc for columns, RLp for position lists)
//
// Each function returns cost in microseconds, CPU and I/O separately.

// ColumnStats describes one stored column to the model.
type ColumnStats struct {
	// Blocks is |Ci|.
	Blocks float64
	// Tuples is ||Ci||.
	Tuples float64
	// RunLen is RLc, the average run length of the encoded column (1 for
	// uncompressed data).
	RunLen float64
	// F is the fraction of the column's pages resident in the buffer pool.
	F float64
}

func (c ColumnStats) rl() float64 {
	if c.RunLen < 1 {
		return 1
	}
	return c.RunLen
}

// scanIO is the I/O term shared by full-scan cases (Figures 1, 3-ish, 6):
// (|Ci|/PF * SEEK + |Ci| * READ) * (1 - F).
func (m Constants) scanIO(c ColumnStats) float64 {
	return (c.Blocks/m.PF*m.SEEK + c.Blocks*m.READ) * (1 - c.F)
}

// DS1 is Data Scan Case 1 (Figure 1): read a column, apply a predicate with
// selectivity sf, output positions.
//
//	CPU = |Ci|*BIC + ||Ci||*(TICCOL+FC)/RL + SF*||Ci||*FC
//	IO  = (|Ci|/PF*SEEK + |Ci|*READ)*(1-F)
func (m Constants) DS1(c ColumnStats, sf float64) (cpu, io float64) {
	cpu = c.Blocks*m.BIC +
		c.Tuples*(m.TICCOL+m.FC)/c.rl() +
		sf*c.Tuples*m.FC
	return cpu, m.scanIO(c)
}

// DS2 is Case 2 (Figure 1 variant): like DS1 but outputting (position,
// value) pairs; step 5 pays TICTUP+FC per qualifying tuple (the cost of
// gluing positions and values together).
func (m Constants) DS2(c ColumnStats, sf float64) (cpu, io float64) {
	cpu = c.Blocks*m.BIC +
		c.Tuples*(m.TICCOL+m.FC)/c.rl() +
		sf*c.Tuples*(m.TICTUP+m.FC)
	return cpu, m.scanIO(c)
}

// DS3 is Case 3 (Figure 2): read a column filtered by a position list of
// ||POSLIST|| entries with average position-run length rlp, output values.
//
//	CPU = |Ci|*BIC + (POSLIST/RLp)*TICCOL + (POSLIST/RLp)*(TICCOL+FC)
//	IO  = (|Ci|/PF*SEEK + SF*|Ci|*READ)*(1-F), and 0 if already accessed
//
// accessed=true is the multi-column case: the column was touched earlier in
// the plan, so F=1 and IO→0.
func (m Constants) DS3(c ColumnStats, poslist, rlp, sf float64, accessed bool) (cpu, io float64) {
	if rlp < 1 {
		rlp = 1
	}
	cpu = c.Blocks*m.BIC +
		poslist/rlp*m.TICCOL +
		poslist/rlp*(m.TICCOL+m.FC)
	if accessed {
		return cpu, 0
	}
	io = (c.Blocks/m.PF*m.SEEK + sf*c.Blocks*m.READ) * (1 - c.F)
	return cpu, io
}

// DS4 is Case 4 (Figure 3): read a column, jump to the position of each of
// ||EM|| early-materialized input tuples, apply a predicate with
// selectivity sf, and merge passing values into wider tuples.
//
//	CPU = |Ci|*BIC + ||EM||*TICTUP + ||EM||*((FC+TICTUP)+FC) + SF*||EM||*TICTUP
//	IO  = (|Ci|/PF*SEEK + |Ci|*READ)*(1-F)
func (m Constants) DS4(c ColumnStats, em, sf float64) (cpu, io float64) {
	cpu = c.Blocks*m.BIC +
		em*m.TICTUP +
		em*((m.FC+m.TICTUP)+m.FC) +
		sf*em*m.TICTUP
	return cpu, m.scanIO(c)
}

// PosList describes one AND input position list.
type PosList struct {
	// Positions is ||inpos_i||.
	Positions float64
	// RunLen is RLp_i, the average run length (the paper's Case 2 bit-string
	// inputs substitute the word size, ||inpos||/32).
	RunLen float64
}

// AND is the position-intersection operator (Figure 4), over k input lists:
//
//	COST = Σ TICCOL*||inpos_i||/RLp_i + M*(k-1)*FC + M*TICCOL*FC
//	M    = max(||inpos_i||/RLp_i)
//
// It is a streaming operator with no I/O.
func (m Constants) AND(ins ...PosList) float64 {
	if len(ins) < 2 {
		return 0
	}
	var sum, max float64
	for _, in := range ins {
		rl := in.RunLen
		if rl < 1 {
			rl = 1
		}
		units := in.Positions / rl
		sum += m.TICCOL * units
		if units > max {
			max = units
		}
	}
	k := float64(len(ins))
	return sum + max*(k-1)*m.FC + max*m.TICCOL*m.FC
}

// Merge is the n-ary tuple construction operator (Figure 5) over k value
// streams of n values each:
//
//	COST = n*k*FC (vector access) + n*k*FC (array output)
func (m Constants) Merge(n float64, k int) float64 {
	return n*float64(k)*m.FC + n*float64(k)*m.FC
}

// SPC is the scan-predicate-construct leaf (Figure 6) over k columns with
// per-column predicate selectivities sfs (1.0 for unpredicated columns).
// Predicates short-circuit in order, so column i's per-tuple work is scaled
// by the product of the preceding selectivities:
//
//	CPU = Σ_i |Ci|*BIC + Σ_i ||Ci||*FC*Π_{j<i}(SFj) + ||Ck||*TICTUP*Π_j(SFj)
//	IO  = Σ_i (|Ci|/PF*SEEK + |Ci|*READ)
func (m Constants) SPC(cols []ColumnStats, sfs []float64) (cpu, io float64) {
	prefix := 1.0
	allSF := 1.0
	for _, sf := range sfs {
		allSF *= sf
	}
	for i, c := range cols {
		cpu += c.Blocks * m.BIC
		cpu += c.Tuples * m.FC * prefix
		if i < len(sfs) {
			prefix *= sfs[i]
		}
		io += (c.Blocks/m.PF*m.SEEK + c.Blocks*m.READ) * (1 - c.F)
	}
	if n := len(cols); n > 0 {
		cpu += cols[n-1].Tuples * m.TICTUP * allSF
	}
	return cpu, io
}

// OutputIteration is the per-query cost both the model and the experiments
// add to iterate over result tuples: numOutTuples * TICTUP.
func (m Constants) OutputIteration(numOut float64) float64 { return numOut * m.TICTUP }
