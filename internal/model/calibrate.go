package model

import (
	"fmt"
	"math"

	"matstore/internal/plan"
)

// This file closes the loop between the analytical model and the machine it
// actually runs on: instead of trusting Table 2's Pentium-4-era constants
// (or the bottom-up micro-measurements of MeasureConstants), Calibrate
// refits BIC, TICTUP, TICCOL and FC by least squares over the
// modeled-vs-observed per-node counters that DB.Explain already collects.
//
// Every Figure 1–6 CPU formula is (up to one negligible cross term in AND)
// linear in the four CPU constants, so an annotated node's predicted cost is
// a dot product feature·constants, where the feature vector depends only on
// catalog statistics and query shape. CollectObservations extracts those
// feature vectors by pricing the plan under unit-basis constant sets — the
// same walk the advisor and the grant sizer run, so the refit tunes the
// function they steer on; the node's observed self-time (Observed.Nanos) is
// the regression target.
// Calibrate then solves the ridge-regularized normal equations, pulling
// toward the prior where the workload leaves a constant unconstrained, and
// never returns constants that fit the observations worse than the prior.

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
	c := Constants{PF: 1, WordSize: 64}
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

// Calibrate refits the four CPU constants to the observations by
// least squares, keeping prior's I/O and word-size constants (SEEK, READ,
// PF, WordSize) untouched. The solve is ridge-regularized toward the prior,
// so a constant the workload never exercises (a zero feature column) keeps
// its prior value instead of collapsing to zero, and negative solutions —
// possible under collinear features — are clamped back to the prior. If the
// fit somehow explains the observations worse than the prior (degenerate
// inputs), the prior is returned unchanged; the fitted constants are
// therefore never worse on the given workload.
func Calibrate(obs []Observation, prior Constants) (Constants, CalibrationReport) {
	rep := CalibrationReport{
		Observations: len(obs),
		Prior:        prior,
		Fitted:       prior,
		PriorErrUS:   rmsError(obs, prior),
		FittedErrUS:  rmsError(obs, prior),
	}
	if len(obs) == 0 {
		return prior, rep
	}

	// Normal equations: A = XᵀX + λI, b = Xᵀy + λ·prior.
	var A [4][4]float64
	var b [4]float64
	for _, o := range obs {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				A[i][j] += o.Features[i] * o.Features[j]
			}
			b[i] += o.Features[i] * o.ObservedUS
		}
	}
	// Column equilibration: block counts number in the tens while tuple
	// counts number in the millions, so the raw normal equations are wildly
	// ill-conditioned. Scale each column to unit energy (sᵢ = √A[i][i]),
	// solve in the scaled space, and scale back. A column the workload never
	// exercises has zero energy; its scaled row is pure ridge, which pins
	// that constant to the prior.
	var s [4]float64
	for i := 0; i < 4; i++ {
		if s[i] = math.Sqrt(A[i][i]); s[i] == 0 {
			s[i] = 1
		}
	}
	pv := [4]float64{prior.BIC, prior.TICTUP, prior.TICCOL, prior.FC}
	const lambda = 1e-8
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			A[i][j] /= s[i] * s[j]
		}
		b[i] = b[i]/s[i] + lambda*pv[i]*s[i]
		A[i][i] += lambda
	}

	w, ok := solve4(A, b)
	if !ok {
		return prior, rep
	}
	for i := 0; i < 4; i++ {
		w[i] /= s[i]
	}
	fitted := prior
	assign := []*float64{&fitted.BIC, &fitted.TICTUP, &fitted.TICCOL, &fitted.FC}
	for i := 0; i < 4; i++ {
		if !math.IsInf(w[i], 0) && !math.IsNaN(w[i]) && w[i] > 0 {
			*assign[i] = w[i]
		}
	}
	fittedErr := rmsError(obs, fitted)
	if fittedErr > rep.PriorErrUS {
		return prior, rep
	}
	rep.Fitted = fitted
	rep.FittedErrUS = fittedErr
	return fitted, rep
}

// solve4 solves the 4×4 system A·w = b by Gaussian elimination with partial
// pivoting; ok is false when A is singular to working precision.
func solve4(A [4][4]float64, b [4]float64) (w [4]float64, ok bool) {
	const n = 4
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		if math.Abs(A[piv][col]) < 1e-300 {
			return w, false
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := A[r][col] / A[col][col]
			for c := col; c < n; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		w[r] = b[r]
		for c := r + 1; c < n; c++ {
			w[r] -= A[r][c] * w[c]
		}
		w[r] /= A[r][r]
	}
	return w, true
}
