package matstore_test

import (
	"runtime"
	"testing"

	"matstore"
	"matstore/internal/tpch"
)

// bytesPerRun is what one call of run allocates, averaged over three calls
// after one that lets the buffer pool read its blocks.
func bytesPerRun(run func()) float64 {
	const runs = 3
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestSelectResultBytes states tuple construction's allocation contract in
// bytes: a result is written once, into chunks of exactly each chunk's
// survivors, so a large selection allocates its result's bytes and little
// besides. The benchmark's widest selection — serial, uncapped, SHIPDATE at
// 0.98 and LINENUM < 7 (27 rows in 28), SHIPDATE and LINENUM out: about 570k
// rows, 9 MB — runs over plain and RLE LINENUM under all four strategies, and
// a run may allocate 1.6 times the result's bytes. Measured on a 2-CPU Xeon
// container: 1.04 to 1.37 times, 1.52 at most under the race detector (the
// rest is the scan layer's and the EM strategies' chunk-wide vectors). One result column per morsel regrown chunk
// by chunk read 4.06 to 4.69 times, allocating, zeroing and copying the
// output about four times over; the chunks concatenated into one array per
// column at the end of the run read 2.04 to 2.37.
func TestSelectResultBytes(t *testing.T) {
	const bound = 1.6
	db := paperScaleDB(t)
	for _, enc := range []string{tpch.ColLinenum, tpch.ColLinenumRLE} {
		q := matstore.Query{
			Output: []string{tpch.ColShipdate, enc},
			Filters: []matstore.Filter{
				{Col: tpch.ColShipdate, Pred: matstore.LessThan(tpch.ShipdateForSelectivity(0.98))},
				{Col: enc, Pred: matstore.LessThan(tpch.LinenumMax)},
			},
			Parallelism: 1,
		}
		for _, s := range matstore.Strategies {
			var res *matstore.Result
			allocated := bytesPerRun(func() {
				var err error
				if res, _, err = db.Select(tpch.LineitemProj, q, s); err != nil {
					t.Fatal(err)
				}
			})
			result := float64(8 * len(res.Columns) * res.NumRows())
			t.Logf("%s/%v: %.1f MB a run for a result of %.1f MB (%.2fx)", enc, s, allocated/(1<<20), result/(1<<20), allocated/result)
			if res.NumRows() < 500_000 {
				t.Fatalf("%s/%v: %d rows, too few for the result to dominate", enc, s, res.NumRows())
			}
			if allocated > bound*result {
				t.Errorf("%s/%v: a run allocates %.2fx its result's %.1f MB; bound %.1fx", enc, s, allocated/result, result/(1<<20), bound)
			}
		}
	}
}
