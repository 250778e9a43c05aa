package model

import (
	"math"
	"testing"
)

// synthObs generates observations whose observed times are exactly the
// model's prediction under truth — the recoverability fixture.
func synthObs(truth Constants) []Observation {
	feats := [][4]float64{
		{10, 0, 60000, 60000},     // DS1-like: blocks*BIC, tuples*(TICCOL+FC)
		{10, 1200, 60000, 61200},  // DS2-like
		{0, 0, 8000, 4000},        // DS3-like
		{50, 180000, 0, 120000},   // DS4-like
		{60, 60000, 0, 120000},    // SPC-like
		{0, 0, 9000, 3000},        // AND-like
		{0, 1200, 0, 2400},        // merge/output-like
		{5, 30000, 30000, 30000},  // join build-like
		{0, 90000, 45000, 45000},  // join probe-like
		{25, 600, 150000, 150600}, // fused-scan-like
	}
	obs := make([]Observation, len(feats))
	for i, f := range feats {
		obs[i] = Observation{Features: f}
		obs[i].ObservedUS = obs[i].predict(truth)
	}
	return obs
}

// TestCalibrateRecoversConstants: fitting exact synthetic observations
// recovers the generating constants and drives the error to ~0.
func TestCalibrateRecoversConstants(t *testing.T) {
	truth := Paper
	truth.BIC, truth.TICTUP, truth.TICCOL, truth.FC = 0.004, 0.012, 0.0021, 0.0017
	obs := synthObs(truth)

	fitted, rep := Calibrate(obs, Paper)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"BIC", fitted.BIC, truth.BIC},
		{"TICTUP", fitted.TICTUP, truth.TICTUP},
		{"TICCOL", fitted.TICCOL, truth.TICCOL},
		{"FC", fitted.FC, truth.FC},
	} {
		if math.Abs(c.got-c.want)/c.want > 0.02 {
			t.Errorf("fitted %s = %v, want ~%v", c.name, c.got, c.want)
		}
	}
	if rep.Observations != len(obs) {
		t.Errorf("report observations = %d, want %d", rep.Observations, len(obs))
	}
	if rep.FittedErrUS >= rep.PriorErrUS {
		t.Errorf("fit did not reduce error: %v -> %v", rep.PriorErrUS, rep.FittedErrUS)
	}
	if rep.PriorErrUS <= 0 || rep.FittedErrUS > rep.PriorErrUS/100 {
		t.Errorf("fit on exact data should be near-perfect: prior=%v fitted=%v",
			rep.PriorErrUS, rep.FittedErrUS)
	}
	// I/O constants ride along from the prior untouched.
	if fitted.SEEK != Paper.SEEK || fitted.READ != Paper.READ {
		t.Errorf("fit touched non-CPU constants: %+v", fitted)
	}
}

// TestCalibrateNeverWorseThanPrior: with degenerate observations (a single
// contradictory pair) the result must fit no worse than the prior, and an
// empty observation set returns the prior unchanged. The pair's four feature
// columns are identical, so the fit uses one constant and zeroes the rest.
func TestCalibrateNeverWorseThanPrior(t *testing.T) {
	fitted, rep := Calibrate(nil, Paper)
	if fitted != Paper || rep.Observations != 0 {
		t.Errorf("empty fit changed constants: %+v", rep)
	}

	// Two observations with identical features but wildly different observed
	// times: no constants fit both; the solver must still not regress.
	obs := []Observation{
		{Features: [4]float64{10, 10, 10, 10}, ObservedUS: 1},
		{Features: [4]float64{10, 10, 10, 10}, ObservedUS: 100000},
	}
	fitted, rep = Calibrate(obs, Paper)
	if rep.FittedErrUS > rep.PriorErrUS {
		t.Errorf("fit regressed: %v -> %v", rep.PriorErrUS, rep.FittedErrUS)
	}
	for _, v := range []float64{fitted.BIC, fitted.TICTUP, fitted.TICCOL, fitted.FC} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("fitted constant out of range: %v (%+v)", v, fitted)
		}
	}
}

// TestCalibrateIsNonNegativeLeastSquares: when the generating constants
// include a negative one, the fit is the constrained optimum — every weight
// non-negative, the gradient of the squared error zero where a weight is
// positive and non-negative where it is zero (the KKT conditions) — not a
// clamp of the unconstrained solution.
func TestCalibrateIsNonNegativeLeastSquares(t *testing.T) {
	truth := Paper
	truth.BIC, truth.TICTUP, truth.TICCOL, truth.FC = 0.004, 0.012, -0.0005, 0.004
	obs := synthObs(truth)
	for _, o := range obs {
		if o.ObservedUS <= 0 {
			t.Fatalf("fixture observation not positive: %+v", o)
		}
	}

	fitted, rep := Calibrate(obs, Paper)
	w := [4]float64{fitted.BIC, fitted.TICTUP, fitted.TICCOL, fitted.FC}
	for i, name := range CPUConstants {
		// ∂/∂wᵢ of ½Σ(f·w − y)², and the scale of its terms.
		var grad, scale float64
		for _, o := range obs {
			grad += o.Features[i] * (o.predict(fitted) - o.ObservedUS)
			scale += math.Abs(o.Features[i] * o.ObservedUS)
		}
		tol := 1e-6 * scale
		switch {
		case w[i] < 0:
			t.Errorf("%s = %v, want >= 0", name, w[i])
		case w[i] > 0 && math.Abs(grad) > tol:
			t.Errorf("%s = %v > 0 but gradient %v, want |gradient| <= %v", name, w[i], grad, tol)
		case w[i] == 0 && grad < -tol:
			t.Errorf("%s = 0 but gradient %v, want >= %v", name, grad, -tol)
		}
	}
	t.Logf("rms %.1fµs -> %.1fµs, fitted %+v", rep.PriorErrUS, rep.FittedErrUS, fitted)
}

// TestCalibrateUnconstrainedConstantKeepsPrior: a workload that never
// exercises TICTUP (zero feature column) must leave it at the prior instead
// of collapsing it to zero.
func TestCalibrateUnconstrainedConstantKeepsPrior(t *testing.T) {
	truth := Paper
	truth.BIC, truth.TICCOL, truth.FC = 0.002, 0.001, 0.0005
	var obs []Observation
	for _, f := range [][4]float64{
		{10, 0, 60000, 20000},
		{0, 0, 8000, 4000},
		{25, 0, 15000, 50000},
		{5, 0, 100000, 1000},
	} {
		o := Observation{Features: f}
		o.ObservedUS = o.predict(truth)
		obs = append(obs, o)
	}
	fitted, _ := Calibrate(obs, Paper)
	if math.Abs(fitted.TICTUP-Paper.TICTUP)/Paper.TICTUP > 0.05 {
		t.Errorf("unconstrained TICTUP drifted: %v, want ~%v", fitted.TICTUP, Paper.TICTUP)
	}
	if math.Abs(fitted.BIC-truth.BIC)/truth.BIC > 0.05 {
		t.Errorf("constrained BIC not recovered: %v, want ~%v", fitted.BIC, truth.BIC)
	}
}
