package operators

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"matstore/internal/oracle"
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
					t.Errorf("%s/%v: AddBatch emits %v, AddTuple %v", kc.name, fn, oracle.Columns(got), oracle.Columns(want))
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

// spcChunkRowLoop is the row-at-a-time SPC the compiled leaf replaced, kept
// as its reference: every predicate applied to each row, short-circuiting in
// order, and an output tuple appended across the columns for the rows where
// all pass.
func spcChunkRowLoop(cols [][]int64, filters []IndexedPred, outIdx []int) [][]int64 {
	out := make([][]int64, len(outIdx))
	if len(cols) == 0 {
		return out
	}
	n := len(cols[0])
	type filter struct {
		pred pred.Predicate
		vals []int64
	}
	fs := make([]filter, len(filters))
	for f, ip := range filters {
		fs[f] = filter{ip.Pred, cols[ip.Col][:n]}
	}
rowLoop:
	for i := 0; i < n; i++ {
		for _, f := range fs {
			if !f.pred.Match(f.vals[i]) {
				continue rowLoop
			}
		}
		for c, idx := range outIdx {
			out[c] = append(out[c], cols[idx][i])
		}
	}
	return out
}

// TestSPCChunkEqualsRowLoop holds the mask-and-compact leaf to the row loop
// over consecutive chunks of changing length fed through ONE compiled SPC
// (its mask is recycled, so a chunk must not see the one before): 0 to 3
// filters, two on the same column, predicates that match everything, nothing,
// all but one value and a range, output subsets and a repeated output column,
// constructed into one result chunk per input chunk — and the aggregating
// shape, two recycled key/value vectors cut to each chunk's count.
func TestSPCChunkEqualsRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lengths := []int{4096 + 17, 64, 0, 1, 65, 63, 1000}
	chunks := make([][][]int64, len(lengths))
	for ci, n := range lengths {
		chunks[ci] = make([][]int64, 3)
		for c := range chunks[ci] {
			chunks[ci][c] = make([]int64, n)
			for i := range chunks[ci][c] {
				chunks[ci][c][i] = rng.Int63n(100)
			}
		}
	}
	filterSets := map[string][]IndexedPred{
		"none":        nil,
		"one":         {{Col: 1, Pred: pred.LessThan(50)}},
		"two":         {{Col: 0, Pred: pred.LessThan(70)}, {Col: 1, Pred: pred.AtLeast(30)}},
		"same-column": {{Col: 2, Pred: pred.AtLeast(20)}, {Col: 2, Pred: pred.LessThan(60)}},
		"three":       {{Col: 0, Pred: pred.InRange(10, 90)}, {Col: 1, Pred: pred.NotEquals(7)}, {Col: 2, Pred: pred.AtMost(80)}},
		"all-then-ne": {{Col: 0, Pred: pred.MatchAll}, {Col: 1, Pred: pred.NotEquals(42)}},
		"none-first":  {{Col: 0, Pred: pred.Predicate{Op: pred.None}}, {Col: 1, Pred: pred.LessThan(50)}},
		"none-last":   {{Col: 1, Pred: pred.LessThan(50)}, {Col: 2, Pred: pred.Predicate{Op: pred.None}}},
		"sparse":      {{Col: 0, Pred: pred.Equals(3)}, {Col: 1, Pred: pred.InRange(0, 50)}},
	}
	outs := map[string][]int{
		"all":      {0, 1, 2},
		"subset":   {2},
		"reorder":  {1, 0},
		"repeated": {2, 0, 2},
	}
	for fname, filters := range filterSets {
		for oname, outIdx := range outs {
			got := rows.NewResult(make([]string, len(outIdx))...)
			spc := CompileSPC(filters, outIdx)
			for ci, cols := range chunks {
				n, ref := spc.Chunk(cols), spcChunkRowLoop(cols, filters, outIdx)
				if n != len(ref[0]) {
					t.Fatalf("%s/%s chunk %d (%d rows): %d survive, row loop %d", fname, oname, ci, lengths[ci], n, len(ref[0]))
				}
				if n == 0 {
					continue
				}
				out := got.AddChunk(n)
				spc.Construct(cols, out)
				if !reflect.DeepEqual(out, ref) {
					t.Fatalf("%s/%s chunk %d (%d rows): columns differ from the row loop", fname, oname, ci, lengths[ci])
				}
			}
		}
		// The aggregating shape: key and value vectors, recycled per chunk.
		kv := make([][]int64, 2)
		spc := CompileSPC(filters, []int{2, 1})
		for ci, cols := range chunks {
			n, ref := spc.Chunk(cols), spcChunkRowLoop(cols, filters, []int{2, 1})
			for c := range kv {
				kv[c] = slices.Grow(kv[c][:0], n)[:n]
			}
			spc.Construct(cols, kv)
			if n != len(ref[0]) || !slices.Equal(kv[0], ref[0]) || !slices.Equal(kv[1], ref[1]) {
				t.Fatalf("%s/agg chunk %d: %d survive, row loop %d (or columns differ)", fname, ci, n, len(ref[0]))
			}
		}
	}
}

// TestSPCChunkReservesTheMatches: the chunk a result is asked for holds the
// rows a chunk constructs, not the rows it scans, and a warm leaf allocates
// nothing to select and construct them.
func TestSPCChunkReservesTheMatches(t *testing.T) {
	const n = 1 << 16
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i % 100)
	}
	in := [][]int64{col}
	dst := rows.NewResult("a")
	spc := CompileSPC([]IndexedPred{{Col: 0, Pred: pred.Equals(3)}}, []int{0})
	constructed := spc.Chunk(in)
	out := dst.AddChunk(constructed)
	spc.Construct(in, out)
	if constructed != n/100+1 || cap(out[0]) != constructed {
		t.Errorf("a 1%%-selective chunk of %d rows constructed %d into a chunk of capacity %d", n, constructed, cap(out[0]))
	}
	if a := testing.AllocsPerRun(10, func() {
		spc.Chunk(in)
		spc.Construct(in, out)
	}); a != 0 {
		t.Errorf("a warm chunk allocated %v times", a)
	}
}

// BenchmarkSPCChunk is the EM-parallel leaf over one default-width chunk of
// three columns, two of them filtered (about half the rows survive both),
// constructing two columns into vectors sized to the survivors, as a result
// chunk is.
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
	spc := CompileSPC([]IndexedPred{{Col: 0, Pred: pred.LessThan(70)}, {Col: 1, Pred: pred.AtLeast(30)}}, []int{0, 2})
	out := [][]int64{make([]int64, n), make([]int64, n)}
	constructed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		constructed = spc.Chunk(cols)
		spc.Construct(cols, [][]int64{out[0][:constructed], out[1][:constructed]})
	}
	b.ReportMetric(float64(constructed), "tuples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}
