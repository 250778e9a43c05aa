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

// TestDemotedRoundTrip writes an in-memory build to the demoted on-disk form
// and rehydrates it: probes and payload values must match for every strategy.
func TestDemotedRoundTrip(t *testing.T) {
	right := spillFixture(t)
	keyCol, valCol := spillCols(t, right)
	const chunkSize = 64
	cols, payload := []*storage.Column{valCol}, []string{"val"}
	for _, rs := range []RightStrategy{RightMaterialized, RightMultiColumn, RightSingleColumn} {
		ref, err := BuildPartitioned(keyCol, cols, payload, rs, chunkSize, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path, bytes, err := WriteDemoted(ref, dir)
		if err != nil {
			t.Fatalf("%v: demote: %v", rs, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != bytes {
			t.Fatalf("%v: demoted file %v size %v, want %d", rs, err, fi, bytes)
		}
		rt, err := LoadDemoted(path, cols, payload)
		if err != nil {
			t.Fatalf("%v: rehydrate: %v", rs, err)
		}
		if rt.Strategy() != rs || rt.Tuples != ref.Tuples || rt.Partitions != ref.Partitions {
			t.Fatalf("%v: rehydrated shape %v/%d/%d", rs, rt.Strategy(), rt.Tuples, rt.Partitions)
		}
		for k := int64(-5); k < 320; k++ {
			got, want := rt.Probe(k), ref.Probe(k)
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("%v: Probe(%d) = %v, want %v", rs, k, got, want)
			}
			for _, rpos := range got {
				switch rs {
				case RightMaterialized:
					if rt.DenseValue(0, rpos) != ref.DenseValue(0, rpos) {
						t.Fatalf("%v: dense value mismatch at %d", rs, rpos)
					}
				case RightMultiColumn:
					if rt.PayloadMinis(rpos)[0].ValueAt(rpos) != ref.PayloadMinis(rpos)[0].ValueAt(rpos) {
						t.Fatalf("%v: mini value mismatch at %d", rs, rpos)
					}
				}
			}
		}
	}
}

// TestDemoteFaults: a demote-write fault leaves no file; a rehydrate fault
// propagates.
func TestDemoteFaults(t *testing.T) {
	right := spillFixture(t)
	keyCol, valCol := spillCols(t, right)
	ref, err := BuildPartitioned(keyCol, []*storage.Column{valCol}, []string{"val"}, RightSingleColumn, 64, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	faults.Reset()
	defer faults.Reset()
	faults.Enable("cache.demote", faults.Failpoint{Mode: faults.ShortWrite})
	dir := t.TempDir()
	if _, _, err := WriteDemoted(ref, dir); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("demote under fault: %v", err)
	}
	if files := spillFiles(t, dir); len(files) != 0 {
		t.Fatalf("failed demote leaked %v", files)
	}
	faults.Reset()
	path, _, err := WriteDemoted(ref, dir)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable("cache.rehydrate", faults.Failpoint{Mode: faults.Error})
	if _, err := LoadDemoted(path, []*storage.Column{valCol}, []string{"val"}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("rehydrate under fault: %v", err)
	}
}

// TestBuildCacheDemotion: an evicted build is demoted to disk and the next
// lookup of its key rehydrates it (a hit, no rebuild); Invalidate removes
// demoted files too.
func TestBuildCacheDemotion(t *testing.T) {
	right := spillFixture(t)
	keyCol, valCol := spillCols(t, right)
	cols, payload := []*storage.Column{valCol}, []string{"val"}
	build := func() (*PartitionedTable, error) {
		return BuildPartitioned(keyCol, cols, payload, RightSingleColumn, 64, 2, 4)
	}
	probeOne, err := build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c := NewBuildCache(probeOne.SizeBytes + probeOne.SizeBytes/2) // room for one
	c.EnableDemotion(dir)
	keyA := BuildKey{Proj: "right", KeyCol: "k", Payload: "val", Strategy: RightSingleColumn, Partitions: 4, ChunkSize: 64}
	keyB := keyA
	keyB.Partitions = 8
	builds := 0
	counted := func() (*PartitionedTable, error) { builds++; return build() }
	if _, hit, err := c.GetOrBuild(keyA, counted); err != nil || hit {
		t.Fatalf("first build: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.GetOrBuild(keyB, counted); err != nil || hit {
		t.Fatalf("second build: hit=%v err=%v", hit, err)
	}
	st := c.Stats()
	if st.Demotions != 1 || st.DemotedEntries != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	if files := spillFiles(t, dir); len(files) != 1 {
		t.Fatalf("demoted files = %v", files)
	}
	rt, hit, err := c.GetOrBuild(keyA, counted)
	if err != nil || !hit {
		t.Fatalf("rehydrate lookup: hit=%v err=%v", hit, err)
	}
	if builds != 2 {
		t.Fatalf("rehydration rebuilt: %d builds", builds)
	}
	if got, want := rt.Probe(7), probeOne.Probe(7); !reflect.DeepEqual(got, want) {
		t.Fatalf("rehydrated probe = %v, want %v", got, want)
	}
	// Rehydrating keyA re-inserted it, which evicted (and demoted) keyB: the
	// demoted tier holds keyB now.
	st = c.Stats()
	if st.DemotedHits != 1 || st.DemotedEntries != 1 || st.Demotions != 2 {
		t.Fatalf("after rehydrate: %+v", st)
	}
	c.Invalidate("right")
	if files := spillFiles(t, dir); len(files) != 0 {
		t.Fatalf("invalidate left demoted files %v", files)
	}
	if st := c.Stats(); st.DemotedEntries != 0 || st.DemotedBytes != 0 {
		t.Fatalf("after invalidate: %+v", st)
	}
}

// TestSweepSpillDir plants orphaned spill files (a crashed process's
// leftovers) and checks the startup sweep removes exactly them.
func TestSweepSpillDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{SpillFilePrefix + "part-123.tmp", SpillFilePrefix + "demote-9.tmp"} {
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
