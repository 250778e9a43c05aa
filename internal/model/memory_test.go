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
// counts, a dense key domain is charged per domain value and a sparse one per
// distinct key, and degenerate inputs are safe.
func TestEstimateJoinMemory(t *testing.T) {
	const sparse = 1 << 40 // a key domain far wider than the tuple count
	key := plan.ColStats{Tuples: 10_000, Distinct: 300, Max: sparse}
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
	worst := EstimateJoinMemory(plan.ColStats{Tuples: 1000, Max: sparse}, nil, operators.RightSingleColumn)
	if want := int64(1000*bytesPerDistinctKey + 1000*bytesPerPosition); worst != want {
		t.Errorf("distinct=0 fallback = %d, want %d", worst, want)
	}
	// A distinct count above tuples (stale stats) clamps too.
	if got := EstimateJoinMemory(plan.ColStats{Tuples: 1000, Distinct: 5000, Max: sparse}, nil, operators.RightSingleColumn); got != worst {
		t.Errorf("distinct>tuples = %d, want clamped %d", got, worst)
	}
	if got := EstimateJoinMemory(plan.ColStats{}, nil, operators.RightMaterialized); got != 0 {
		t.Errorf("empty table estimate = %d, want 0", got)
	}

	// A dense domain is charged per domain value, whatever its distinct count;
	// one past the threshold is charged per distinct key again.
	dense := plan.ColStats{Tuples: 10_000, Distinct: 300, Min: -500, Max: 2_499}
	if got, want := EstimateJoinMemory(dense, nil, operators.RightSingleColumn), int64(3_000*bytesPerDomainValue+10_000*bytesPerPosition); got != want {
		t.Errorf("dense single-column = %d, want %d", got, want)
	}
	edge := int64(4 * operators.NextPow2(2*10_000)) // domain values at the threshold
	dense.Min, dense.Max = 0, edge-1
	if got, want := EstimateJoinMemory(dense, nil, operators.RightSingleColumn), edge*bytesPerDomainValue+10_000*bytesPerPosition; got != want {
		t.Errorf("dense at the threshold = %d, want %d", got, want)
	}
	dense.Max = edge
	if got, want := EstimateJoinMemory(dense, nil, operators.RightSingleColumn), int64(300*bytesPerDistinctKey+10_000*bytesPerPosition); got != want {
		t.Errorf("one past the threshold = %d, want %d", got, want)
	}
}

// TestEstimateJoinMemoryBracketsBuiltTable holds the memory model to the
// table it models: for unique and for 10x-duplicated inner keys, over a dense
// domain and over a sparse one (the hashed form), under every strategy and at
// several partition counts, the estimate is at least the
// built table's SizeBytes (the governor never under-reserves) and at most
// twice it (it never wastes more than the budget again). The fixture fills
// its blocks exactly, so the multi-column term — whole retained blocks — has
// no partial block to over-count.
func TestEstimateJoinMemoryBracketsBuiltTable(t *testing.T) {
	const rows = 4 * encoding.PlainBlockCap
	for _, fx := range []struct{ dup, stride int64 }{{1, 1}, {10, 1}, {1, 1_000_003}, {10, 1_000_003}} {
		dup, stride := fx.dup, fx.stride
		dir := filepath.Join(t.TempDir(), "right")
		w, err := storage.NewProjectionWriter(dir, "right", nil, []storage.ColumnSpec{
			{Name: "k", Encoding: encoding.Plain},
			{Name: "val", Encoding: encoding.Plain},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < rows; i++ {
			if err := w.AppendRow(i/dup*stride, 1000+i); err != nil {
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
		lo, hi := key.MinMax()
		if dense := operators.DenseKeys(lo, hi, key.TupleCount()); dense != (stride == 1) {
			t.Fatalf("dup %d stride %d: DenseKeys = %v", dup, stride, dense)
		}
		for _, rs := range []operators.RightStrategy{
			operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
		} {
			est := EstimateJoinMemory(plan.ColStats{Tuples: float64(key.TupleCount()), Distinct: key.Distinct(), Min: lo, Max: hi},
				[]plan.ColStats{{Blocks: float64(val.NumBlocks())}}, rs)
			for _, partitions := range []int{1, 4, 32} {
				rt, err := operators.BuildPartitioned(key, []*storage.Column{val}, []string{"val"}, rs, 65536, 1, partitions)
				if err != nil {
					t.Fatal(err)
				}
				if est < rt.SizeBytes || est > 2*rt.SizeBytes {
					t.Errorf("dup %d/stride %d/%v/p=%d: estimate %d outside [SizeBytes, 2*SizeBytes] = [%d, %d]",
						dup, stride, rs, partitions, est, rt.SizeBytes, 2*rt.SizeBytes)
				}
			}
		}
	}
}
