package model

import (
	"path/filepath"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/storage"
)

// TestEstimateJoinMemory pins the memory model's shape: strategies order
// single-column < materialized-with-payload, multi-column scales with block
// counts, and degenerate inputs are safe.
func TestEstimateJoinMemory(t *testing.T) {
	key := plan.ColStats{Tuples: 10_000, Distinct: 300}
	payload := []plan.ColStats{{Blocks: 4}, {Blocks: 4}}
	single := EstimateJoinMemory(key, payload, operators.RightSingleColumn)
	mat := EstimateJoinMemory(key, payload, operators.RightMaterialized)
	multi := EstimateJoinMemory(key, payload, operators.RightMultiColumn)

	if single <= 0 {
		t.Fatalf("single-column estimate = %d, want > 0 (hash entries)", single)
	}
	if want := int64(300*bytesPerDistinctKey + 10_000*bytesPerPosition); single != want {
		t.Errorf("single-column = %d, want %d", single, want)
	}
	if mat != single+2*10_000*bytesPerDenseValue {
		t.Errorf("materialized = %d, want single %d + dense arrays", mat, single)
	}
	if multi != single+8*bytesPerBlock {
		t.Errorf("multi-column = %d, want single %d + 8 retained blocks", multi, single)
	}

	// Unknown distinct count falls back to the unique-key worst case.
	worst := EstimateJoinMemory(plan.ColStats{Tuples: 1000}, nil, operators.RightSingleColumn)
	if want := int64(1000*bytesPerDistinctKey + 1000*bytesPerPosition); worst != want {
		t.Errorf("distinct=0 fallback = %d, want %d", worst, want)
	}
	// A distinct count above tuples (stale stats) clamps too.
	if got := EstimateJoinMemory(plan.ColStats{Tuples: 1000, Distinct: 5000}, nil, operators.RightSingleColumn); got != worst {
		t.Errorf("distinct>tuples = %d, want clamped %d", got, worst)
	}
	if got := EstimateJoinMemory(plan.ColStats{}, nil, operators.RightMaterialized); got != 0 {
		t.Errorf("empty table estimate = %d, want 0", got)
	}
}

// TestEstimateJoinMemoryBracketsBuiltTable holds the memory model to the
// table it models: for unique and for 10x-duplicated inner keys, under every
// strategy and at several partition counts, the estimate is at least the
// built table's SizeBytes (the governor never under-reserves) and at most
// twice it (it never wastes more than the budget again). The fixture fills
// its blocks exactly, so the multi-column term — whole retained blocks — has
// no partial block to over-count.
func TestEstimateJoinMemoryBracketsBuiltTable(t *testing.T) {
	const rows = 4 * encoding.PlainBlockCap
	for _, dup := range []int64{1, 10} {
		dir := filepath.Join(t.TempDir(), "right")
		w, err := storage.NewProjectionWriter(dir, "right", nil, []storage.ColumnSpec{
			{Name: "k", Encoding: encoding.Plain},
			{Name: "val", Encoding: encoding.Plain},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < rows; i++ {
			if err := w.AppendRow(i/dup, 1000+i); err != nil {
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
		key, err := p.Column("k")
		if err != nil {
			t.Fatal(err)
		}
		val, err := p.Column("val")
		if err != nil {
			t.Fatal(err)
		}
		if want := (rows + dup - 1) / dup; key.Distinct() != want {
			t.Fatalf("dup %d: catalog distinct = %d, want %d", dup, key.Distinct(), want)
		}
		for _, rs := range []operators.RightStrategy{
			operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
		} {
			est := EstimateJoinMemory(plan.ColStats{Tuples: float64(key.TupleCount()), Distinct: key.Distinct()},
				[]plan.ColStats{{Blocks: float64(val.NumBlocks())}}, rs)
			for _, partitions := range []int{1, 4, 32} {
				rt, err := operators.BuildPartitioned(key, []*storage.Column{val}, []string{"val"}, rs, 65536, 1, partitions)
				if err != nil {
					t.Fatal(err)
				}
				if est < rt.SizeBytes || est > 2*rt.SizeBytes {
					t.Errorf("dup %d/%v/p=%d: estimate %d outside [SizeBytes, 2*SizeBytes] = [%d, %d]",
						dup, rs, partitions, est, rt.SizeBytes, 2*rt.SizeBytes)
				}
			}
		}
	}
}
