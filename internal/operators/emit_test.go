package operators

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"matstore/internal/pred"
	"matstore/internal/rows"
)

// runHeavyKeys returns n keys in runs of 1..maxRun equal values drawn from
// distinct groups, sorted when sorted is set (a group key the projection is
// ordered on) and otherwise revisiting groups (a clustered one).
func runHeavyKeys(rng *rand.Rand, n, distinct, maxRun int, sorted bool) []int64 {
	keys := make([]int64, 0, n)
	for k := int64(0); len(keys) < n; k++ {
		key := k * int64(distinct) / int64(n/maxRun+1)
		if !sorted {
			key = rng.Int63n(int64(distinct))
		}
		for run := 1 + rng.Intn(maxRun); run > 0 && len(keys) < n; run-- {
			keys = append(keys, key)
		}
	}
	return keys
}

// TestAddBatchEqualsAddTuple is the run-folding property: AddBatch sums each
// run of equal keys locally and touches the map once per run, and must leave
// the aggregator exactly as one AddTuple per pair does — results, Groups and
// TuplesIn — for every aggregate function, on random keys (runs of one), on
// run-heavy sorted and clustered keys, and with values whose sums wrap.
func TestAddBatchEqualsAddTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 4000
	random := make([]int64, n)
	for i := range random {
		random[i] = rng.Int63n(29) - 14
	}
	small := make([]int64, n)
	wide := make([]int64, n)
	for i := range small {
		small[i] = rng.Int63n(2001) - 1000
		wide[i] = rng.Int63n(math.MaxInt64) - math.MaxInt64/2 // sums overflow and wrap alike
	}
	for _, kc := range []struct {
		name string
		keys []int64
	}{
		{"random", random},
		{"sorted-runs", runHeavyKeys(rng, n, 7, 900, true)},
		{"clustered-runs", runHeavyKeys(rng, n, 5, 40, false)},
		{"one-run", make([]int64, n)},
		{"empty", nil},
	} {
		for _, vals := range [][]int64{small, wide} {
			vals = vals[:len(kc.keys)]
			for _, fn := range aggFuncs {
				batched, tuples := NewAggregator(fn), NewAggregator(fn)
				// Two batches with a run straddling the cut: a run's partial
				// fold must merge into the group the first batch left.
				cut := len(kc.keys) / 3
				batched.AddBatch(kc.keys[:cut], vals[:cut])
				batched.AddBatch(kc.keys[cut:], vals[cut:])
				for i, k := range kc.keys {
					tuples.AddTuple(k, vals[i])
				}
				if got, want := batched.Emit("k", "v"), tuples.Emit("k", "v"); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v: AddBatch emits %v, AddTuple %v", kc.name, fn, got.Cols, want.Cols)
				}
				if !reflect.DeepEqual(batched.ExportGroups(), tuples.ExportGroups()) {
					t.Errorf("%s/%v: group statistics differ", kc.name, fn)
				}
				if batched.Groups() != tuples.Groups() || batched.TuplesIn != tuples.TuplesIn || batched.TuplesIn != int64(len(kc.keys)) {
					t.Errorf("%s/%v: groups %d/%d tuples-in %d/%d, want %d", kc.name, fn,
						batched.Groups(), tuples.Groups(), batched.TuplesIn, tuples.TuplesIn, len(kc.keys))
				}
			}
		}
	}
}

// TestAddBatchWarmDoesNotAllocate: once an aggregator has met its groups, a
// batch costs no allocation, whatever its length.
func TestAddBatchWarmDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := runHeavyKeys(rng, 1<<14, 64, 8, false)
	vals := make([]int64, len(keys))
	agg := NewSumAggregator()
	agg.AddBatch(keys, vals)
	if n := testing.AllocsPerRun(10, func() { agg.AddBatch(keys, vals) }); n != 0 {
		t.Errorf("warm AddBatch allocated %v times per batch", n)
	}
}

// BenchmarkAggAddBatchSortedKeys is the EM aggregation of the paper's
// queries: one default-width chunk of tuples whose group key (three values,
// like RETURNFLAG) arrives sorted, into a warm aggregator.
func BenchmarkAggAddBatchSortedKeys(b *testing.B) {
	const n = 1 << 16
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 3 / n)
		vals[i] = int64(i % 50)
	}
	agg := NewSumAggregator()
	agg.AddBatch(keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.AddBatch(keys, vals)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
}

// BenchmarkSPCChunk is the EM-parallel leaf over one default-width chunk of
// three columns, two of them filtered (about half the rows survive both),
// emitting two columns into a result that is truncated between chunks, as a
// morsel's result is once it has grown to size.
func BenchmarkSPCChunk(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(5))
	cols := make([][]int64, 3)
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = rng.Int63n(100)
		}
	}
	filters := []IndexedPred{{Col: 0, Pred: pred.LessThan(70)}, {Col: 1, Pred: pred.AtLeast(30)}}
	outIdx := []int{0, 2}
	dst := rows.NewResult("a", "c")
	constructed := SPCChunk(cols, filters, outIdx, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Cols[0], dst.Cols[1] = dst.Cols[0][:0], dst.Cols[1][:0]
		constructed = SPCChunk(cols, filters, outIdx, dst)
	}
	b.ReportMetric(float64(constructed), "tuples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}
