package bench

import (
	"context"
	"testing"

	"matstore"
	"matstore/internal/service"
)

// TestCalibrationReducesError is the closed-loop acceptance test: refitting
// the cost-model constants from the mixed workload's per-node observations
// must reduce the total modeled-vs-observed error relative to the paper's
// Table 2 constants, install the fit on the DB, and leave the serving path
// fully functional (the closed loop still passes its differential-checked
// execution under the new constants and cost-sized grants).
//
// The observed times are synthetic: every node "took" what a machine with
// the known constants below would take, so the fit depends on the workload's
// feature vectors alone and is the same on every run. Wall-clock timings made
// one run in four produce a negative least-squares solution, which Calibrate
// clamps and then abandons for the prior — no worse, but not better either.
func TestCalibrationReducesError(t *testing.T) {
	e := testEnv(t)
	e.Close()
	db, err := matstore.Open(envDir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	paper := matstore.PaperConstants()
	if db.Constants() != paper {
		t.Fatalf("fresh DB not on paper constants: %+v", db.Constants())
	}
	reqs := MixedWorkload(300)
	obs, err := Observe(db, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) < 10 {
		t.Fatalf("workload yielded only %d observations", len(obs))
	}
	// A machine some forty times faster than Table 2's, unevenly so.
	truth := [4]float64{paper.BIC / 25, paper.TICTUP / 60, paper.TICCOL / 40, paper.FC / 30}
	for i := range obs {
		obs[i].ObservedUS = 0
		for j, f := range obs[i].Features {
			obs[i].ObservedUS += f * truth[j]
		}
	}
	fitted, rep := matstore.FitConstants(obs, db.Constants())
	db.SetConstants(fitted)
	if rep.Prior != paper {
		t.Errorf("calibration prior is not the paper constants: %+v", rep.Prior)
	}
	if rep.FittedErrUS >= rep.PriorErrUS {
		t.Errorf("calibration did not reduce modeled-vs-observed error: %.1fµs -> %.1fµs",
			rep.PriorErrUS, rep.FittedErrUS)
	}
	for _, v := range []float64{fitted.BIC, fitted.TICTUP, fitted.TICCOL, fitted.FC} {
		if v <= 0 {
			t.Errorf("fitted constant not positive: %+v", fitted)
		}
	}

	// The wall-clock refit the server runs at start-up: whatever the timings
	// were — a clamped fit falls back to its prior — it is no worse than what
	// it started from, and it is installed.
	wall, err := CalibrateDB(db, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if wall.Prior != fitted || wall.FittedErrUS > wall.PriorErrUS {
		t.Errorf("wall-clock refit: prior %+v, error %.1fµs -> %.1fµs", wall.Prior, wall.PriorErrUS, wall.FittedErrUS)
	}
	if db.Constants() != wall.Fitted {
		t.Error("CalibrateDB did not install the fitted constants")
	}

	// The serving path runs on the fit: advisors, estimates and grants all
	// consume db.Constants() — one closed-loop pass must still succeed.
	srv := service.New(db, service.Config{WorkerBudget: 2, MaxConcurrent: 4})
	stats, err := RunClosedLoop(context.Background(), srv, 2, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * len(reqs)); stats.Requests != want {
		t.Errorf("closed loop under calibrated constants ran %d requests, want %d", stats.Requests, want)
	}
}
