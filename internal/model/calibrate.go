package model

import (
	"fmt"
	"math"

	"matstore/internal/plan"
)

// This file closes the loop between the analytical model and the machine it
// actually runs on: instead of trusting Table 2's Pentium-4-era constants,
// Calibrate refits BIC, TICTUP, TICCOL and FC by least squares over the
// modeled-vs-observed per-node counters that DB.Explain already collects.
// It is the one source of a host's constants.
//
// Every Figure 1–6 CPU formula is (up to one negligible cross term in AND)
// linear in the four CPU constants, so an annotated node's predicted cost is
// a dot product feature·constants, where the feature vector depends only on
// catalog statistics and query shape. CollectObservations extracts those
// feature vectors by pricing the plan under unit-basis constant sets — the
// same walk the advisor and the grant sizer run, so the refit tunes the
// function they steer on; the node's observed self-time (Observed.Nanos) is
// the regression target.
// Calibrate then finds the exact non-negative least-squares fit, and never
// returns constants that fit the observations worse than the prior.

// CPUConstants names the calibrated constants in feature order.
var CPUConstants = [4]string{"BIC", "TICTUP", "TICCOL", "FC"}

// Observation is one (feature vector, observed time) pair: a plan node's
// modeled cost decomposed per CPU constant, against its observed execution
// time in microseconds.
type Observation struct {
	// Node labels the originating operator (diagnostics only).
	Node string
	// Features[i] is the modeled cost contribution per unit of CPUConstants[i]
	// (µs per µs of constant), so modeled ≈ Features·{BIC,TICTUP,TICCOL,FC}.
	Features [4]float64
	// ObservedUS is the node's observed self-time in microseconds.
	ObservedUS float64
}

// predict returns the modeled cost of the observation under c.
func (o Observation) predict(c Constants) float64 {
	return o.Features[0]*c.BIC + o.Features[1]*c.TICTUP +
		o.Features[2]*c.TICCOL + o.Features[3]*c.FC
}

// basis returns a constant set with exactly one CPU constant set to 1 µs
// (index into CPUConstants; -1 zeroes all four). I/O terms are neutralized:
// the walk runs hot (F=1) so SEEK/READ contribute nothing, and PF=1 avoids a
// 0/0 in the scan I/O formula.
func basis(i int) Constants {
	c := Constants{PF: 1}
	switch i {
	case 0:
		c.BIC = 1
	case 1:
		c.TICTUP = 1
	case 2:
		c.TICCOL = 1
	case 3:
		c.FC = 1
	}
	return c
}

// CollectObservations extracts one Observation per executed node of an
// observed plan run (a DB.Explain execution): the node's per-constant model
// features — its price under each unit-basis constant set — against its
// observed self-time. Nodes that never executed or have an all-zero feature
// vector (e.g. ALLPOS) are skipped. The plan is not written to.
func CollectObservations(p *plan.Plan) []Observation {
	var nodes []*plan.Node
	var feats [][4]float64
	for i := 0; i < 4; i++ {
		k := 0 // the walk visits nodes in the same order on every pass
		basis(i).price(p, true, func(n *plan.Node, c Cost) {
			if i == 0 {
				nodes = append(nodes, n)
				feats = append(feats, [4]float64{})
			}
			feats[k][i] = c.Total()
			k++
		})
	}

	var obs []Observation
	for k, n := range nodes {
		if n.Obs.Chunks.Load() == 0 || feats[k] == [4]float64{} {
			continue
		}
		obs = append(obs, Observation{
			Node:       n.Kind.String() + " " + n.Col,
			Features:   feats[k],
			ObservedUS: float64(n.Obs.Nanos.Load()) / 1e3,
		})
	}
	return obs
}

// CalibrationReport describes one Calibrate run: the constants before and
// after, and the model's root-mean-square per-observation error under each.
type CalibrationReport struct {
	// Observations is the number of (node, time) pairs fitted.
	Observations int
	// Prior and Fitted are the constants before and after the refit.
	Prior, Fitted Constants
	// PriorErrUS and FittedErrUS are the RMS modeled-vs-observed error per
	// observation (µs) under the prior and fitted constants.
	PriorErrUS, FittedErrUS float64
}

func (r CalibrationReport) String() string {
	return fmt.Sprintf(
		"calibrated over %d node observations: rms error %.1fµs -> %.1fµs\n"+
			"  BIC    %.4f -> %.6f µs\n  TICTUP %.4f -> %.6f µs\n"+
			"  TICCOL %.4f -> %.6f µs\n  FC     %.4f -> %.6f µs\n",
		r.Observations, r.PriorErrUS, r.FittedErrUS,
		r.Prior.BIC, r.Fitted.BIC, r.Prior.TICTUP, r.Fitted.TICTUP,
		r.Prior.TICCOL, r.Fitted.TICCOL, r.Prior.FC, r.Fitted.FC)
}

// rmsError returns the RMS modeled-vs-observed error of c over obs.
func rmsError(obs []Observation, c Constants) float64 {
	if len(obs) == 0 {
		return 0
	}
	var sse float64
	for _, o := range obs {
		d := o.predict(c) - o.ObservedUS
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(obs)))
}

// Calibrate refits the four CPU constants to the observations by exact
// non-negative least squares, keeping prior's I/O constants (SEEK, READ, PF)
// untouched. With four constants the optimum is found by enumeration: every
// subset of the constants the observations exercise is fitted by
// unconstrained least squares with the others at zero, and the best fit whose
// weights are all non-negative wins. The prior is the first candidate, so the
// result never fits worse than it. A constant whose feature column is all
// zero keeps its prior value; one the data drives to zero reads 0.
func Calibrate(obs []Observation, prior Constants) (Constants, CalibrationReport) {
	// Normal equations XᵀX·w = Xᵀy, each column scaled to unit energy
	// (sᵢ = √(XᵀX)ᵢᵢ): block counts number in the tens while tuple counts
	// number in the millions, so the raw system is wildly ill-conditioned.
	var A [4][4]float64
	var b, s [4]float64
	for _, o := range obs {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				A[i][j] += o.Features[i] * o.Features[j]
			}
			b[i] += o.Features[i] * o.ObservedUS
		}
	}
	exercised := 0
	for i := 0; i < 4; i++ {
		if s[i] = math.Sqrt(A[i][i]); s[i] > 0 {
			exercised |= 1 << i
		}
	}

	priorErr := rmsError(obs, prior)
	fitted, fittedErr := prior, priorErr
	for subset := 1; subset < 16; subset++ {
		if subset&^exercised != 0 {
			continue
		}
		var idx []int
		for i := 0; i < 4; i++ {
			if subset&(1<<i) != 0 {
				idx = append(idx, i)
			}
		}
		w, ok := solve(A, b, s, idx)
		if !ok {
			continue
		}
		c := prior
		for i, p := range []*float64{&c.BIC, &c.TICTUP, &c.TICCOL, &c.FC} {
			if exercised&(1<<i) != 0 {
				*p = w[i]
			}
		}
		if err := rmsError(obs, c); err < fittedErr {
			fitted, fittedErr = c, err
		}
	}
	return fitted, CalibrationReport{
		Observations: len(obs),
		Prior:        prior,
		Fitted:       fitted,
		PriorErrUS:   priorErr,
		FittedErrUS:  fittedErr,
	}
}

// solve returns the unconstrained least-squares weights of the constants in
// idx (the others zero) from the normal equations A·w = b, eliminating on the
// unit-energy-scaled system with partial pivoting. ok is false when the
// subset's columns are linearly dependent or a weight comes out negative.
func solve(A [4][4]float64, b, s [4]float64, idx []int) (w [4]float64, ok bool) {
	n := len(idx)
	var m [4][5]float64 // the scaled subsystem, right-hand side in column n
	for r, i := range idx {
		for c, j := range idx {
			m[r][c] = A[i][j] / (s[i] * s[j])
		}
		m[r][n] = b[i] / s[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return w, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	var x [4]float64 // the scaled weights, in idx order
	for r := n - 1; r >= 0; r-- {
		x[r] = m[r][n]
		for c := r + 1; c < n; c++ {
			x[r] -= m[r][c] * x[c]
		}
		if x[r] /= m[r][r]; x[r] < 0 {
			return w, false
		}
	}
	for r, i := range idx {
		w[i] = x[r] / s[i]
	}
	return w, true
}
