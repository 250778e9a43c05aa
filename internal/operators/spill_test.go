package operators

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/faults"
	"matstore/internal/storage"
)

// spillFixture builds a right projection big enough to span many chunks and
// spill frames: 3000 rows, keys 0..299 (each repeated 10x), val = 1000+i.
func spillFixture(t *testing.T) *storage.Projection {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "right")
	w, err := storage.NewProjectionWriter(dir, "right", nil, []storage.ColumnSpec{
		{Name: "k", Encoding: encoding.Plain},
		{Name: "val", Encoding: encoding.Plain},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := w.AppendRow(int64(i%300), int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := storage.OpenProjection(dir, buffer.New(0))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func spillCols(t *testing.T, p *storage.Projection) (key, val *storage.Column) {
	t.Helper()
	key, err := p.Column("k")
	if err != nil {
		t.Fatal(err)
	}
	val, err = p.Column("val")
	if err != nil {
		t.Fatal(err)
	}
	return key, val
}

func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, SpillFilePrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestSpillBuildMatchesInMemory pins the Grace build against the in-memory
// reference at every budget: resident partitions probe identically, and
// spilled partitions, loaded back partition-at-a-time, hold exactly the
// reference's ascending bucket lists.
func TestSpillBuildMatchesInMemory(t *testing.T) {
	right := spillFixture(t)
	keyCol, valCol := spillCols(t, right)
	const chunkSize = 64
	ref, err := BuildPartitioned(keyCol, []*storage.Column{valCol}, []string{"val"}, RightSingleColumn, chunkSize, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1, ref.SizeBytes / 2, ref.SizeBytes * 100} {
		dir := t.TempDir()
		cfg := SpillConfig{BudgetBytes: budget, EstBytes: ref.SizeBytes, Dir: dir}
		rt, err := BuildPartitionedSpill(context.Background(), keyCol, []*storage.Column{valCol}, []string{"val"}, RightSingleColumn, chunkSize, 4, 8, cfg)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !rt.DeferredPayload() {
			t.Fatal("spill build must defer payload")
		}
		if rt.SpilledParts != rt.Partitions-rt.ResidentPartitions() {
			t.Fatalf("SpilledParts = %d, resident %d of %d", rt.SpilledParts, rt.ResidentPartitions(), rt.Partitions)
		}
		spilledTables := map[int]*FlatTable{}
		for pt := rt.ResidentPartitions(); pt < rt.Partitions; pt++ {
			tbl, err := rt.LoadSpilledPartition(pt)
			if err != nil {
				t.Fatalf("budget %d: load partition %d: %v", budget, pt, err)
			}
			spilledTables[pt] = tbl
		}
		for k := int64(-5); k < 320; k++ {
			want := ref.Probe(k)
			var got []int64
			if pt := rt.KeyPartition(k); rt.SpilledPartition(pt) {
				got = spilledTables[pt].Probe(k)
			} else {
				got = rt.Probe(k)
			}
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("budget %d: key %d: got %v, want %v", budget, k, got, want)
			}
		}
		if budget == 0 && rt.SpillBytes == 0 {
			t.Fatal("zero budget should have spilled bytes")
		}
		rt.ReleaseSpill()
		rt.ReleaseSpill() // idempotent
		if files := spillFiles(t, dir); len(files) != 0 {
			t.Fatalf("budget %d: leaked spill files %v", budget, files)
		}
	}
}

// TestSpillBuildFaults arms each disk failpoint and checks the build fails
// cleanly: a propagated error and zero temp files left behind.
func TestSpillBuildFaults(t *testing.T) {
	right := spillFixture(t)
	keyCol, valCol := spillCols(t, right)
	for _, site := range []string{"spill.create", "spill.write"} {
		for _, mode := range []faults.Mode{faults.Error, faults.ShortWrite} {
			faults.Reset()
			faults.Enable(site, faults.Failpoint{Mode: mode})
			dir := t.TempDir()
			cfg := SpillConfig{BudgetBytes: 1, EstBytes: 1 << 20, Dir: dir}
			_, err := BuildPartitionedSpill(context.Background(), keyCol, []*storage.Column{valCol}, []string{"val"}, RightSingleColumn, 64, 2, 8, cfg)
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("%s/%v: err = %v, want injected", site, mode, err)
			}
			if files := spillFiles(t, dir); len(files) != 0 {
				t.Fatalf("%s/%v: leaked %v", site, mode, files)
			}
		}
	}
	faults.Reset()

	// Cancellation mid-build: also no leaked files.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	_, err := BuildPartitionedSpill(ctx, keyCol, []*storage.Column{valCol}, nil, RightSingleColumn, 64, 2, 8,
		SpillConfig{BudgetBytes: 1, EstBytes: 1 << 20, Dir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: %v", err)
	}
	if files := spillFiles(t, dir); len(files) != 0 {
		t.Fatalf("cancelled build leaked %v", files)
	}
}

// TestSpillReadFault arms the probe-side read failpoint: the load errors and
// the files are still released cleanly.
func TestSpillReadFault(t *testing.T) {
	right := spillFixture(t)
	keyCol, valCol := spillCols(t, right)
	dir := t.TempDir()
	rt, err := BuildPartitionedSpill(context.Background(), keyCol, []*storage.Column{valCol}, []string{"val"}, RightSingleColumn, 64, 2, 8,
		SpillConfig{BudgetBytes: 1, EstBytes: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	faults.Reset()
	faults.Enable("spill.read", faults.Failpoint{Mode: faults.Error})
	if _, err := rt.LoadSpilledPartition(rt.Partitions - 1); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("load under read fault: %v", err)
	}
	faults.Reset()
	rt.ReleaseSpill()
	if files := spillFiles(t, dir); len(files) != 0 {
		t.Fatalf("leaked %v", files)
	}
}

// TestSweepSpillDir plants orphaned spill files (a crashed process's
// leftovers) and checks the startup sweep removes exactly them.
func TestSweepSpillDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{SpillFilePrefix + "part-123.tmp", SpillFilePrefix + "part-9.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "not-a-spill-file")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := SweepSpillDir(dir)
	if err != nil || n != 2 {
		t.Fatalf("sweep = %d, %v; want 2", n, err)
	}
	if files := spillFiles(t, dir); len(files) != 0 {
		t.Fatalf("sweep left %v", files)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatal("sweep removed a non-spill file")
	}
	if n, err := SweepSpillDir(filepath.Join(dir, "missing")); n != 0 || err != nil {
		t.Fatalf("missing dir sweep = %d, %v", n, err)
	}
}
