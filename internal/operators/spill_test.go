package operators

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/faults"
	"matstore/internal/storage"
)

// spillFixture builds a right projection big enough to span many chunks:
// 3000 rows, keys 0..299 (each repeated 10x), val = 1000+i.
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

// TestSpillBuildMatchesInMemory pins the Grace build against the in-memory
// reference at every budget: resident partitions probe identically, and cold
// partitions, rebuilt from the key column partition-at-a-time, hold exactly
// the reference's ascending bucket lists.
func TestSpillBuildMatchesInMemory(t *testing.T) {
	right := spillFixture(t)
	keyCol, valCol := spillCols(t, right)
	const chunkSize = 64
	ref, err := BuildPartitioned(keyCol, []*storage.Column{valCol}, []string{"val"}, RightSingleColumn, chunkSize, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1, ref.SizeBytes / 2, ref.SizeBytes * 100} {
		cfg := SpillConfig{BudgetBytes: budget, EstBytes: ref.SizeBytes}
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
			tbl, err := rt.LoadSpilledPartition(context.Background(), pt)
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
		if budget == 0 && rt.SpillBytes != 16*3000 {
			t.Fatalf("zero budget: SpillBytes = %d, want 16 bytes for each of the 3000 entries", rt.SpillBytes)
		}
	}
}

// TestSpillReadFault arms the pass-B failpoint: the rebuild errors. A rebuild
// under a cancelled context returns the context's error, and one that finds a
// different entry count than the build counted fails rather than probing a
// partial table.
func TestSpillReadFault(t *testing.T) {
	right := spillFixture(t)
	keyCol, valCol := spillCols(t, right)
	rt, err := BuildPartitionedSpill(context.Background(), keyCol, []*storage.Column{valCol}, []string{"val"}, RightSingleColumn, 64, 2, 8,
		SpillConfig{BudgetBytes: 1, EstBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pt := rt.Partitions - 1
	faults.Reset()
	faults.Enable("spill.read", faults.Failpoint{Mode: faults.Error})
	if _, err := rt.LoadSpilledPartition(context.Background(), pt); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("load under read fault: %v", err)
	}
	faults.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.LoadSpilledPartition(ctx, pt); !errors.Is(err, context.Canceled) {
		t.Fatalf("load under a cancelled context: %v", err)
	}
	rt.spill.counts[pt]++
	if _, err := rt.LoadSpilledPartition(context.Background(), pt); err == nil {
		t.Fatal("a rebuild finding fewer entries than counted succeeded")
	}
	rt.spill.counts[pt]--
	if _, err := rt.LoadSpilledPartition(context.Background(), pt); err != nil {
		t.Fatal(err)
	}
}
