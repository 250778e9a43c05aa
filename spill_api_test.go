package matstore_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"matstore"
	"matstore/internal/pred"
	"matstore/internal/tpch"
)

// TestOpenSweepsOrphanedSpillFiles pins the crash-recovery satellite: spill
// temp files have the lifetime of one query run, so a fresh Open removes any
// leftovers from a crashed predecessor — and reports the count — while
// leaving foreign files in the spill directory alone.
func TestOpenSweepsOrphanedSpillFiles(t *testing.T) {
	dir := t.TempDir()
	if err := matstore.Generate(dir, 0.002, 7); err != nil {
		t.Fatal(err)
	}
	spillDir := filepath.Join(dir, ".spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphans := []string{
		filepath.Join(spillDir, "spill-part-123.tmp"),
		filepath.Join(spillDir, "spill-demote-456.tmp"),
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	foreign := filepath.Join(spillDir, "keep.txt")
	if err := os.WriteFile(foreign, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := matstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.OrphanedSpillFiles(); got != len(orphans) {
		t.Errorf("OrphanedSpillFiles = %d, want %d", got, len(orphans))
	}
	if db.SpillDir() != spillDir {
		t.Errorf("SpillDir = %q, want %q", db.SpillDir(), spillDir)
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived Open", p)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("foreign file removed by sweep: %v", err)
	}

	// A second open over the now-clean directory sweeps nothing.
	db2, err := matstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.OrphanedSpillFiles(); got != 0 {
		t.Errorf("second Open swept %d files, want 0", got)
	}
}

// TestEstimateJoinMemoryFromCatalog checks the public estimator wires catalog
// statistics into the memory model: estimates are positive, ordered
// single-column <= multi-column (hash entries only vs retained blocks), and
// the materialized strategy pays for its dense payload arrays.
func TestEstimateJoinMemoryFromCatalog(t *testing.T) {
	db := open(t)
	q := matstore.JoinQuery{
		LeftKey:     "custkey",
		LeftPred:    matstore.MatchAll,
		LeftOutput:  []string{"shipdate"},
		RightKey:    "custkey",
		RightOutput: []string{"nationcode"},
	}
	est := make(map[matstore.RightStrategy]int64)
	for _, rs := range matstore.JoinStrategies {
		n, err := db.EstimateJoinMemory("customer", q, rs)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Errorf("%v: estimate %d, want > 0", rs, n)
		}
		est[rs] = n
	}
	if est[matstore.RightSingleColumn] > est[matstore.RightMultiColumn] {
		t.Errorf("single-column %d > multi-column %d", est[matstore.RightSingleColumn], est[matstore.RightMultiColumn])
	}
	if est[matstore.RightMaterialized] <= est[matstore.RightSingleColumn] {
		t.Errorf("materialized %d should exceed single-column %d (dense arrays)",
			est[matstore.RightMaterialized], est[matstore.RightSingleColumn])
	}
	if _, err := db.EstimateJoinMemory("nope", q, matstore.RightMaterialized); err == nil {
		t.Error("unknown projection accepted")
	}
}

// spillJoinQuery is the benchmark's Grace-spill op on a dataset of the given
// scale: orders ⋈ customer at one worker, the outer key below the given
// selectivity, keeping a quarter of the build's estimated bytes resident (with
// one worker the build has a single radix partition, so that quarter spills it
// all).
func spillJoinQuery(t testing.TB, db *matstore.DB, scale, sel float64) matstore.JoinQuery {
	t.Helper()
	nCust := tpch.Config{Scale: scale}.CustomerRows()
	q := matstore.JoinQuery{
		LeftKey:     tpch.ColCustkey,
		LeftPred:    pred.LessThan(tpch.CustkeyForSelectivity(sel, nCust)),
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightKey:    tpch.ColCustkey,
		RightOutput: []string{tpch.ColNationcode},
		Parallelism: 1,
	}
	est, err := db.EstimateJoinMemory(tpch.CustomerProj, q, matstore.RightMaterialized)
	if err != nil {
		t.Fatal(err)
	}
	q.SpillBudgetBytes = est / 4
	return q
}

// TestJoinSpillBytesPerOp bounds what pass B of the Grace join allocates. On a
// unique inner key every deferred probe's placeholder row is filled in place,
// so a fully spilled run allocates what the in-memory single-column run of the
// same query does — result rows holding right positions, then the deferred
// fetch — plus the per-partition probe lists, the spill frames and the
// partition reloaded from disk. Measured on the benchmark's dataset (scale
// 0.1) at selectivities 0.5 and 0.9: 1.7× and 1.6× the single-column run's
// bytes (8.1 and 9.5 MB). A second result rebuilt around anchors, with its
// staging arrays, measured 2.5× and 2.9× (12.0 and 17.2 MB). The bound is 2×.
func TestJoinSpillBytesPerOp(t *testing.T) {
	db := paperScaleDB(t)
	bytesPerRun := func(q matstore.JoinQuery, rs matstore.RightStrategy) float64 {
		const runs = 3
		run := func() {
			if _, _, err := db.Join(tpch.OrdersProj, tpch.CustomerProj, q, rs); err != nil {
				t.Fatal(err)
			}
		}
		run() // the pool reads the blocks once
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, sel := range []float64{0.5, 0.9} {
		q := spillJoinQuery(t, db, 0.1, sel)
		spilled := bytesPerRun(q, matstore.RightMaterialized)
		q.SpillBudgetBytes = 0
		single := bytesPerRun(q, matstore.RightSingleColumn)
		t.Logf("sel=%.1f: spilled %.1f MB a run, in-memory single-column %.1f MB (%.2fx)",
			sel, spilled/(1<<20), single/(1<<20), spilled/single)
		if spilled > 2*single {
			t.Errorf("sel=%.1f: a spilled run allocates %.1f MB, %.2fx the in-memory single-column run's %.1f MB; bound 2x",
				sel, spilled/(1<<20), spilled/single, single/(1<<20))
		}
	}
}
