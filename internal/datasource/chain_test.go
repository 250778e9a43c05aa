package datasource

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"matstore/internal/encoding"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
)

// chainChunk is the chunk width of the recycled-batch tests.
const chainChunk = 256

// chainValues returns one column of nChunks chunks of values in [0,100).
// Chunk 1 is all 0 and chunk 3 all 99, the others random, so under one fixed
// predicate consecutive chunks swing between every tuple surviving, a part
// and none: what a recycled batch could carry over from the chunk before.
func chainValues(rng *rand.Rand, nChunks int) []int64 {
	vals := make([]int64, nChunks*chainChunk)
	for i := range vals {
		switch i / chainChunk {
		case 1:
			vals[i] = 0
		case 3:
			vals[i] = 99
		default:
			vals[i] = int64(rng.Intn(100))
		}
	}
	return vals
}

// TestExtendChunkBatchedRecycledBatch drives the in-place chain — DS2 into
// one batch, three DS4 widenings of it — over five consecutive chunks with
// every combination of per-column selectivity {0, 0.01, 0.5, 1}, and holds
// each step to the scalar reference DS4.ExtendChunk on fresh batches: same
// positions, same values in every filled attribute, nothing left over in the
// attributes not reached yet.
func TestExtendChunkBatchedRecycledBatch(t *testing.T) {
	const nChunks, nCols = 5, 4
	rng := rand.New(rand.NewSource(13))
	encs := []encoding.Kind{encoding.Plain, encoding.RLE, encoding.BitVector, encoding.Plain}
	names := []string{"a", "b", "c", "d"}
	vals := make([][]int64, nCols)
	cols := make([]*storage.Column, nCols)
	for c := range cols {
		vals[c] = chainValues(rng, nChunks)
		cols[c], _ = writeColumn(t, encs[c], vals[c])
	}
	bounds := []int64{0, 1, 50, 100} // LessThan(bound): selectivity 0, 0.01, 0.5, 1
	ch := NewChunker(cols[0].Extent(), chainChunk)

	var sel [nCols]int
	for combo := 0; combo < 1<<(2*nCols); combo++ {
		for c := range sel {
			sel[c] = combo >> (2 * c) & 3
		}
		preds := make([]pred.Predicate, nCols)
		for c := range preds {
			preds[c] = pred.LessThan(bounds[sel[c]])
		}
		ds2 := NewDS2(cols[0], pred.CompileConj(preds[:1]))
		batch := rows.NewBatch(names...)
		for ci := 0; ci < ch.NumChunks(); ci++ {
			cr := ch.Chunk(ci)
			if err := ds2.ScanChunk(cr, batch); err != nil {
				t.Fatal(err)
			}
			ref := rows.NewBatch(names[0])
			for p := cr.Start; p < cr.End; p++ {
				if preds[0].Match(vals[0][p]) {
					ref.Append(p, vals[0][p])
				}
			}
			check := func(step int) {
				t.Helper()
				where := fmt.Sprintf("sel %v chunk %d after column %d", sel, ci, step)
				if !slices.Equal(batch.Pos, ref.Pos) {
					t.Fatalf("%s: positions differ: %d tuples, want %d", where, batch.Len(), ref.Len())
				}
				for c := range batch.Cols {
					var want []int64
					if c <= step {
						want = ref.Cols[c]
					}
					if !slices.Equal(batch.Cols[c], want) {
						t.Fatalf("%s: attribute %d holds %d values, want %d (or values differ)",
							where, c, len(batch.Cols[c]), len(want))
					}
				}
			}
			check(0)
			for c := 1; c < nCols; c++ {
				mc, err := cols[c].Window(cr)
				if err != nil {
					t.Fatal(err)
				}
				ds4 := NewDS4(cols[c], pred.CompileConj(preds[c:c+1]))
				ref = ds4.ExtendChunk(mc, ref, names[c])
				if err := ds4.ExtendChunkBatched(batch, c); err != nil {
					t.Fatal(err)
				}
				check(c)
			}
		}
	}
}

// benchChain times the EM-pipelined tuple chain — DS2 plus nCols-1 DS4
// widenings of one recycled batch — over a 16-chunk column at the default
// chunk width; every predicate keeps about nine tuples in ten, so each DS4
// both compacts and carries most of the batch on.
func benchChain(b *testing.B, nCols int) {
	const nChunks = 16
	rng := rand.New(rand.NewSource(7))
	cols := make([]*storage.Column, nCols)
	names := make([]string, nCols)
	for c := range cols {
		vals := make([]int64, nChunks*DefaultChunkSize)
		for i := range vals {
			vals[i] = int64(rng.Intn(100))
		}
		cols[c], _ = writeColumn(b, encoding.Plain, vals)
		names[c] = fmt.Sprint("c", c)
	}
	ds2 := NewDS2(cols[0], pred.CompileConj([]pred.Predicate{pred.LessThan(90)}))
	ds4s := make([]*DS4, nCols)
	for c := 1; c < nCols; c++ {
		ds4s[c] = NewDS4(cols[c], pred.CompileConj([]pred.Predicate{pred.LessThan(90)}))
	}
	ch := NewChunker(cols[0].Extent(), DefaultChunkSize)
	batch := rows.NewBatch(names...)
	var tuples int64
	pass := func() {
		for ci := 0; ci < ch.NumChunks(); ci++ {
			if err := ds2.ScanChunk(ch.Chunk(ci), batch); err != nil {
				b.Fatal(err)
			}
			for c := 1; c < nCols; c++ {
				if err := ds4s[c].ExtendChunkBatched(batch, c); err != nil {
					b.Fatal(err)
				}
			}
			tuples += int64(batch.Len())
		}
	}
	pass() // fills the buffer pool and sizes the batch, as a morsel's first chunks do
	tuples = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(tuples)/float64(b.N), "tuples/op")
}

func BenchmarkEMPipelinedChain2Cols(b *testing.B) { benchChain(b, 2) }
func BenchmarkEMPipelinedChain4Cols(b *testing.B) { benchChain(b, 4) }
