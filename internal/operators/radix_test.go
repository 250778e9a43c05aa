package operators

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/storage"
)

func TestNextPow2(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 63: 64, 64: 64, 65: 128} {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestResolvePartitions(t *testing.T) {
	for _, tc := range []struct{ workers, override, want int }{
		{1, 0, 1}, {2, 0, 2}, {3, 0, 4}, {8, 0, 8},
		{4, 1, 1}, {1, 8, 8}, {1, 5, 8}, {0, 0, 1},
	} {
		if got := ResolvePartitions(tc.workers, tc.override); got != tc.want {
			t.Errorf("ResolvePartitions(%d, %d) = %d, want %d", tc.workers, tc.override, got, tc.want)
		}
	}
}

// TestHashKeySpread sanity-checks that the radix bits of dense key domains
// (the common foreign-key case) spread across partitions rather than
// clustering in a few buckets.
func TestHashKeySpread(t *testing.T) {
	const p = 8
	var counts [p]int
	for k := int64(0); k < 8000; k++ {
		counts[HashKey(k)&(p-1)]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("partition %d holds %d of 8000 dense keys (want ~1000)", i, c)
		}
	}
}

// TestBuildPartitionedMatchesSerial pins the radix-partitioned build to the
// serial definition of a hash side, taken from the decompressed columns: for
// every strategy, worker count and partition count, probing any key must
// return its right positions in ascending order, and the per-strategy payload
// storage must hold the stored values.
func TestBuildPartitionedMatchesSerial(t *testing.T) {
	_, right := joinFixture(t)
	keyCol, err := right.Column("k")
	if err != nil {
		t.Fatal(err)
	}
	valCol, err := right.Column("val")
	if err != nil {
		t.Fatal(err)
	}
	keyMini, err := keyCol.Window(keyCol.Extent())
	if err != nil {
		t.Fatal(err)
	}
	valMini, err := valCol.Window(valCol.Extent())
	if err != nil {
		t.Fatal(err)
	}
	vals := valMini.Decompress(nil)
	ref := map[int64][]int64{}
	for pos, k := range keyMini.Decompress(nil) {
		ref[k] = append(ref[k], int64(pos))
	}
	const chunkSize = 64
	for _, rs := range []RightStrategy{RightMaterialized, RightMultiColumn, RightSingleColumn} {
		wantBuild := map[RightStrategy]int64{RightMaterialized: int64(len(vals))}[rs]
		for _, workers := range []int{1, 2, 4, 7} {
			for _, partitions := range []int{0, 1, 2, 8, 64} {
				rt, err := BuildPartitioned(keyCol, []*storage.Column{valCol}, []string{"val"}, rs, chunkSize, workers, partitions)
				if err != nil {
					t.Fatalf("%v/w=%d/p=%d: %v", rs, workers, partitions, err)
				}
				if rt.BuildTuples != wantBuild {
					t.Errorf("%v/w=%d/p=%d: BuildTuples = %d, want %d", rs, workers, partitions, rt.BuildTuples, wantBuild)
				}
				for k := int64(-1); k < 12; k++ {
					got, want := rt.Probe(k), ref[k]
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%v/w=%d/p=%d: Probe(%d) = %v, want %v", rs, workers, partitions, k, got, want)
					}
					for _, rpos := range got {
						switch rs {
						case RightMaterialized:
							if gotV := rt.DenseValue(0, rpos); gotV != vals[rpos] {
								t.Errorf("%v: DenseValue(0, %d) = %d, want %d", rs, rpos, gotV, vals[rpos])
							}
						case RightMultiColumn:
							if gotV := rt.PayloadMinis(rpos)[0].ValueAt(rpos); gotV != vals[rpos] {
								t.Errorf("%v: mini value at %d = %d, want %d", rs, rpos, gotV, vals[rpos])
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildPartitionedEmptyRight checks the degenerate empty inner table:
// probes must return nothing and the build must not fault.
func TestBuildPartitionedEmptyRight(t *testing.T) {
	_, right := joinFixture(t)
	keyCol, err := right.Column("k")
	if err != nil {
		t.Fatal(err)
	}
	// An empty extent comes from a zero-tuple projection; simulate by
	// probing a table built over the fixture but asking for missing keys.
	rt, err := BuildPartitioned(keyCol, nil, nil, RightMaterialized, 64, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Probe(999); got != nil {
		t.Errorf("Probe(999) = %v, want nil", got)
	}
	if rt.Partitions != 4 {
		t.Errorf("Partitions = %d, want 4", rt.Partitions)
	}
}

// TestGatherMinis holds the multi-column strategy's batched payload gather to
// the stored values, for every payload encoding, over an inner table of many
// chunks: matches shuffled and repeated across all of them (the extracted
// window), a few far apart (the sorted extract), and all inside one chunk —
// reusing one scratch from call to call as a probing morsel does.
func TestGatherMinis(t *testing.T) {
	const n, chunkSize = 1000, 64
	dir := filepath.Join(t.TempDir(), "right")
	w, err := storage.NewProjectionWriter(dir, "right", nil, []storage.ColumnSpec{
		{Name: "k", Encoding: encoding.Plain},
		{Name: "plain", Encoding: encoding.Plain},
		{Name: "rle", Encoding: encoding.RLE},
		{Name: "bv", Encoding: encoding.BitVector},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	want := map[string][]int64{}
	for i := int64(0); i < n; i++ {
		row := map[string]int64{"plain": rng.Int63n(1000), "rle": i / 37, "bv": rng.Int63n(5)}
		if err := w.AppendRow(i, row["plain"], row["rle"], row["bv"]); err != nil {
			t.Fatal(err)
		}
		for name, v := range row {
			want[name] = append(want[name], v)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	right, err := storage.OpenProjection(dir, buffer.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer right.Close()
	payload := []string{"plain", "rle", "bv"}
	var cols []*storage.Column
	for _, name := range append([]string{"k"}, payload...) {
		c, err := right.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	rt, err := BuildPartitioned(cols[0], cols[1:], payload, RightMultiColumn, chunkSize, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]int64, 3*n)
	for i := range dense {
		dense[i] = rng.Int63n(n)
	}
	var scratch encoding.Unordered
	for name, pos := range map[string][]int64{
		"dense":     dense,
		"sparse":    {n - 1, 3, 500, 3, 64},
		"one-chunk": {130, 129, 191, 128, 130},
		"none":      {},
	} {
		for c, col := range payload {
			got := make([]int64, len(pos))
			if err := rt.GatherMinis(c, pos, got, &scratch); err != nil {
				t.Fatalf("%s/%s: %v", name, col, err)
			}
			for i, p := range pos {
				if got[i] != want[col][p] {
					t.Fatalf("%s/%s: match %d at right position %d: %d, want %d", name, col, i, p, got[i], want[col][p])
				}
			}
		}
	}
	if err := rt.GatherMinis(0, []int64{n}, make([]int64, 1), &scratch); err == nil {
		t.Fatal("a position past the inner table was gathered")
	}
}

// storedKeyColumn writes keys as a stored plain column and opens it.
func storedKeyColumn(t *testing.T, keys []int64) (*storage.Column, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "right")
	w, err := storage.NewProjectionWriter(dir, "right", nil, []storage.ColumnSpec{{Name: "k", Encoding: encoding.Plain}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := w.AppendRow(k); err != nil {
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
	col, err := p.Column("k")
	if err != nil {
		t.Fatal(err)
	}
	return col, filepath.Join(dir, "k.col")
}

// TestBuildFormFollowsKeyDomain: over stored key columns on either side of
// the DenseKeys threshold, the build — in memory, and pass B's rebuild of a
// cold partition — takes the form the column header's bounds imply, and
// every partition table answers the reference map's positions.
func TestBuildFormFollowsKeyDomain(t *testing.T) {
	const n = 600
	edge := int64(4 * NextPow2(2*n))
	domain := func(start, step int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = start + int64(i)*step
		}
		rand.New(rand.NewSource(start)).Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		return ks
	}
	dups, atEdge, pastEdge := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range dups { // the threshold fixtures span edge and edge+1 values
		dups[i], atEdge[i], pastEdge[i] = int64(i%150)-75, int64(i)*(edge-1)/(n-1), int64(i)*edge/(n-1)
	}
	extremes := domain(0, 1)
	extremes[0], extremes[1] = math.MinInt64, math.MaxInt64
	for _, tc := range []struct {
		name  string
		keys  []int64
		dense bool
	}{
		{"dense unique", domain(0, 1), true},
		{"dense duplicates, negative min", dups, true},
		{"at the threshold", atEdge, true},
		{"past the threshold", pastEdge, false},
		{"sparse", domain(-7_000_000_000, 1_000_003), false},
		{"int64 min end", domain(math.MinInt64, 1), true},
		{"int64 max end", domain(math.MaxInt64-n+1, 1), true},
		{"int64 extremes", extremes, false},
	} {
		col, _ := storedKeyColumn(t, tc.keys)
		ref := map[int64][]int64{}
		for pos, k := range tc.keys {
			ref[k] = append(ref[k], int64(pos))
		}
		for _, partitions := range []int{1, 8} {
			at := fmt.Sprintf("%s/p=%d", tc.name, partitions)
			rt, err := BuildPartitioned(col, nil, nil, RightSingleColumn, 64, 4, partitions)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if rt.denseKey != tc.dense {
				t.Fatalf("%s: dense = %v, want %v", at, rt.denseKey, tc.dense)
			}
			spilled, err := BuildPartitionedSpill(context.Background(), col, nil, nil, RightSingleColumn, 64, 4, partitions,
				SpillConfig{BudgetBytes: 1, EstBytes: rt.SizeBytes})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			for pt := range rt.tables {
				cold, err := spilled.LoadSpilledPartition(context.Background(), pt)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				for _, tbl := range []*FlatTable{&rt.tables[pt], cold} {
					if dense := tbl.off != nil; tbl.Len() > 0 && (dense != tc.dense || (tbl.slots != nil) == dense) {
						t.Errorf("%s: partition %d has %d slots and %d offsets", at, pt, len(tbl.slots), len(tbl.off))
					}
				}
				for k, want := range ref {
					if rt.KeyPartition(k) == pt && !reflect.DeepEqual(cold.Probe(k), want) {
						t.Errorf("%s: rebuilt partition %d: Probe(%d) = %v, want %v", at, pt, k, cold.Probe(k), want)
					}
				}
			}
			checkAgainstRef(t, at, rt.Probe, ref, []int64{math.MinInt64, math.MaxInt64, -76, 1 << 40})
		}
	}
}

// TestBuildRejectsKeysOutsideHeader: a dense build trusts the header's bounds
// for its offsets array, so a stored key beyond them — a header that
// understates its max — fails the build, in memory and in spill mode, with an
// error rather than a wrong answer.
func TestBuildRejectsKeysOutsideHeader(t *testing.T) {
	keys := make([]int64, 600)
	for i := range keys {
		keys[i] = int64(i)
	}
	col, path := storedKeyColumn(t, keys)
	col.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var maxV [8]byte
	binary.LittleEndian.PutUint64(maxV[:], 500)
	if _, err := f.WriteAt(maxV[:], 40); err != nil { // the header's max
		t.Fatal(err)
	}
	f.Close()
	col, err = storage.Open(path, buffer.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if lo, hi := col.MinMax(); lo != 0 || hi != 500 {
		t.Fatalf("patched header bounds = [%d, %d], want [0, 500]", lo, hi)
	}
	if _, err := BuildPartitioned(col, nil, nil, RightSingleColumn, 64, 2, 4); err == nil {
		t.Error("in-memory build over keys past the header's max succeeded")
	}
	if _, err := BuildPartitionedSpill(context.Background(), col, nil, nil, RightSingleColumn, 64, 2, 4,
		SpillConfig{BudgetBytes: 1, EstBytes: 1 << 20}); err == nil {
		t.Error("spill build over keys past the header's max succeeded")
	}
}
