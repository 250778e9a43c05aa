package model

import (
	"math"
	"testing"
)

// close enough for hand-computed formula checks
func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestDS1Formula(t *testing.T) {
	m := Paper
	c := ColumnStats{Blocks: 5, Tuples: 26726, RunLen: 10, F: 0}
	cpu, io := m.DS1(c, 0.5)
	wantCPU := 5*m.BIC + 26726*(m.TICCOL+m.FC)/10 + 0.5*26726*m.FC
	wantIO := (5/m.PF*m.SEEK + 5*m.READ) * 1
	if !approx(cpu, wantCPU) || !approx(io, wantIO) {
		t.Errorf("DS1 = %v,%v want %v,%v", cpu, io, wantCPU, wantIO)
	}
	// Fully buffered column has zero I/O.
	c.F = 1
	if _, io := m.DS1(c, 0.5); io != 0 {
		t.Errorf("DS1 with F=1: io = %v", io)
	}
}

func TestDS2CostsMoreThanDS1(t *testing.T) {
	m := Paper
	c := ColumnStats{Blocks: 5, Tuples: 10000, RunLen: 1}
	cpu1, _ := m.DS1(c, 0.5)
	cpu2, _ := m.DS2(c, 0.5)
	if cpu2 <= cpu1 {
		t.Errorf("DS2 cpu %v should exceed DS1 cpu %v (gluing positions and values)", cpu2, cpu1)
	}
	wantDelta := 0.5 * 10000 * (m.TICTUP + m.FC - m.FC)
	if !approx(cpu2-cpu1, wantDelta) {
		t.Errorf("DS2-DS1 = %v, want %v", cpu2-cpu1, wantDelta)
	}
}

func TestDS3Formula(t *testing.T) {
	m := Paper
	c := ColumnStats{Blocks: 10, Tuples: 80000, RunLen: 4}
	cpu, io := m.DS3(c, 4000, 8, 0.05, false)
	wantCPU := 10*m.BIC + 4000/8.0*m.TICCOL + 4000/8.0*(m.TICCOL+m.FC)
	wantIO := 10/m.PF*m.SEEK + 0.05*10*m.READ
	if !approx(cpu, wantCPU) || !approx(io, wantIO) {
		t.Errorf("DS3 = %v,%v want %v,%v", cpu, io, wantCPU, wantIO)
	}
	// Multi-column reuse: IO -> 0.
	if _, io := m.DS3(c, 4000, 8, 0.05, true); io != 0 {
		t.Errorf("DS3 accessed: io = %v", io)
	}
}

func TestDS4Formula(t *testing.T) {
	m := Paper
	c := ColumnStats{Blocks: 7, Tuples: 50000, RunLen: 1}
	cpu, io := m.DS4(c, 2000, 0.3)
	wantCPU := 7*m.BIC + 2000*m.TICTUP + 2000*(m.FC+m.TICTUP+m.FC) + 0.3*2000*m.TICTUP
	if !approx(cpu, wantCPU) {
		t.Errorf("DS4 cpu = %v, want %v", cpu, wantCPU)
	}
	if io <= 0 {
		t.Error("DS4 must pay full scan IO")
	}
}

func TestANDFormula(t *testing.T) {
	m := Paper
	a := PosList{Positions: 1000, RunLen: 10}
	b := PosList{Positions: 500, RunLen: 1}
	got := m.AND(a, b)
	mx := 500.0 // max(1000/10=100, 500/1=500)
	want := m.TICCOL*100 + m.TICCOL*500 + mx*1*m.FC + mx*m.TICCOL*m.FC
	if !approx(got, want) {
		t.Errorf("AND = %v, want %v", got, want)
	}
	if m.AND(a) != 0 {
		t.Error("AND of one input should be free")
	}
}

func TestANDBitLists(t *testing.T) {
	// A bit-string input's run length is the word size.
	m := Paper
	bits32 := PosList{Positions: 3200, RunLen: 32}
	bits64 := PosList{Positions: 3200, RunLen: 64}
	cost32 := m.AND(bits32, bits32)
	cost64 := m.AND(bits64, bits64)
	if cost64 >= cost32 {
		t.Errorf("64-bit AND (%v) should be cheaper than 32-bit (%v)", cost64, cost32)
	}
}

func TestMergeFormula(t *testing.T) {
	m := Paper
	if got, want := m.Merge(1000, 2), 1000*2*m.FC*2; !approx(got, want) {
		t.Errorf("Merge = %v, want %v", got, want)
	}
}

func TestSPCFormula(t *testing.T) {
	m := Paper
	cols := []ColumnStats{{Blocks: 2, Tuples: 1000}, {Blocks: 4, Tuples: 1000}}
	sfs := []float64{0.1, 0.5}
	cpu, io := m.SPC(cols, sfs)
	wantCPU := 2*m.BIC + 4*m.BIC + // block iteration
		1000*m.FC + // col 1 predicate on all tuples
		1000*m.FC*0.1 + // col 2 predicate on survivors
		1000*m.TICTUP*0.05 // construct only the passing tuples
	wantIO := (2/m.PF*m.SEEK + 2*m.READ) + (4/m.PF*m.SEEK + 4*m.READ)
	if !approx(cpu, wantCPU) || !approx(io, wantIO) {
		t.Errorf("SPC = %v,%v want %v,%v", cpu, io, wantCPU, wantIO)
	}
}

func TestEstimatePosRuns(t *testing.T) {
	c := ColumnStats{Tuples: 60000}
	if got := EstimatePosRuns(c, 0.5, true, 3); !approx(got, 10000) {
		t.Errorf("sorted runs = %v, want 10000", got)
	}
	if got := EstimatePosRuns(c, 0, true, 3); got != 1 {
		t.Errorf("zero-sf runs = %v", got)
	}
	if got := EstimatePosRuns(c, 0.5, false, 0); !approx(got, 2) {
		t.Errorf("unsorted runs = %v, want 2", got)
	}
	if got := EstimatePosRuns(c, 1, false, 0); got != 60000 {
		t.Errorf("sf=1 unsorted = %v, want all", got)
	}
}

func TestCostArithmetic(t *testing.T) {
	c := Cost{CPU: 10, IO: 5}
	if c.Total() != 15 {
		t.Errorf("Total = %v", c.Total())
	}
	c = c.Add(1, 2)
	if c.CPU != 11 || c.IO != 7 {
		t.Errorf("Add = %+v", c)
	}
}
