package operators

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refTable is the reference the flat table is held to: the map of position
// lists it replaced.
func refTable(entries []buildEntry) map[int64][]int64 {
	ref := map[int64][]int64{}
	for _, e := range entries {
		ref[e.key] = append(ref[e.key], e.pos)
	}
	return ref
}

// checkAgainstRef probes every present key and the given absent ones.
func checkAgainstRef(t *testing.T, name string, probe func(int64) []int64, ref map[int64][]int64, absent []int64) {
	t.Helper()
	for k, want := range ref {
		if got := probe(k); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Probe(%d) = %v, want %v", name, k, got, want)
		}
	}
	for _, k := range absent {
		if _, present := ref[k]; present {
			continue
		}
		if got := probe(k); got != nil {
			t.Errorf("%s: Probe(%d) = %v for an absent key, want nil", name, k, got)
		}
	}
}

// collidingKeys returns n distinct keys whose hashes share their top 16 bits,
// so in any table of up to 2^16 slots they all have the same home slot.
func collidingKeys(n int) []int64 {
	want := HashKey(1) >> 48
	keys := []int64{1}
	for k := int64(2); len(keys) < n; k++ {
		if HashKey(k)>>48 == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func seededEntries(seed int64, n int, keyRange int64) []buildEntry {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]buildEntry, n)
	for i := range entries {
		entries[i] = buildEntry{key: rng.Int63n(2*keyRange) - keyRange, pos: int64(i)}
	}
	return entries
}

// keyBounds returns the least and greatest key of entries.
func keyBounds(entries []buildEntry) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, e := range entries {
		lo, hi = min(lo, e.key), max(hi, e.key)
	}
	return lo, hi
}

func entriesOf(keys ...int64) []buildEntry {
	entries := make([]buildEntry, len(keys))
	for i, k := range keys {
		entries[i] = buildEntry{key: k, pos: int64(i)}
	}
	return entries
}

func TestFlatTableMatchesMapReference(t *testing.T) {
	colliding := collidingKeys(50)
	repeated := func(key int64, n int) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = key
		}
		return keys
	}
	cases := map[string][]buildEntry{
		"empty":                   nil,
		"key zero":                entriesOf(0),
		"negative keys":           entriesOf(-1, -2, -3, -1, -1000000007),
		"extremes":                entriesOf(math.MinInt64, math.MaxInt64, 0, math.MinInt64, -1, 1),
		"all identical":           entriesOf(repeated(42, 1000)...),
		"1, 2 and 100 duplicates": entriesOf(append([]int64{7, 8, 8}, repeated(9, 100)...)...),
		// 40 of 50 keys with one home slot form a full cluster; the other 10
		// hash into it, are absent, and must walk it to its end.
		"high-bit collisions": entriesOf(slices.Concat(colliding[:40], colliding[:5])...),
		"random 1":            seededEntries(1, 1, 10),
		"random 7":            seededEntries(2, 7, 4),
		"random 4096":         seededEntries(3, 4096, 1500),
		"random 100k unique":  seededEntries(4, 100_000, math.MaxInt64/2),
		"random 100k dups":    seededEntries(5, 100_000, 5_000),
		"dense near min":      entriesOf(math.MinInt64+3, math.MinInt64, math.MinInt64+3, math.MinInt64+1),
		"dense near max":      entriesOf(math.MaxInt64, math.MaxInt64-5, math.MaxInt64, math.MaxInt64-2),
	}
	absent := append([]int64{0, -1, 1, 5, 43, math.MinInt64, math.MaxInt64, 1 << 40}, colliding[40:]...)
	for name, entries := range cases {
		ref := refTable(entries)
		// One run, and the same entries cut into runs as the radix build's
		// per-morsel staging buffers arrive.
		for _, cuts := range []int{1, 3} {
			var runs [][]buildEntry
			for c := 0; c < cuts; c++ {
				runs = append(runs, entries[c*len(entries)/cuts:(c+1)*len(entries)/cuts])
			}
			tbl, err := newFlatTable(runs...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if tbl.Len() != len(entries) {
				t.Errorf("%s: Len = %d, want %d", name, tbl.Len(), len(entries))
			}
			if want := NextPow2(2 * len(ref)); len(ref) > 0 && len(tbl.slots) > max(want, 2) {
				t.Errorf("%s: %d slots for %d distinct keys, want at most %d", name, len(tbl.slots), len(ref), want)
			}
			checkAgainstRef(t, name, tbl.Probe, ref, absent)

			// The dense form of the same entries, whenever their range fits.
			lo, hi := keyBounds(entries)
			if !DenseKeys(lo, hi, int64(len(entries))) {
				continue
			}
			dense, err := newDenseTable(lo, 0, uint64(hi)-uint64(lo)+1, runs...)
			if err != nil {
				t.Fatalf("%s dense: %v", name, err)
			}
			if dense.Len() != len(entries) || dense.slots != nil {
				t.Errorf("%s dense: Len = %d with %d slots, want %d and none", name, dense.Len(), len(dense.slots), len(entries))
			}
			checkAgainstRef(t, name+" dense", dense.Probe, ref, append(absent, lo-1, hi+1))
		}
	}
}

// TestFlatTableEntryLimit pins the uint32 offset guard: 2^32 entries in one
// partition is an error, not a wrapped offset.
func TestFlatTableEntryLimit(t *testing.T) {
	if err := checkEntryCount(math.MaxUint32); err != nil {
		t.Errorf("2^32-1 entries: %v", err)
	}
	if err := checkEntryCount(math.MaxUint32 + 1); err == nil {
		t.Error("2^32 entries accepted")
	}
}

// partitionedFromEntries assembles a PartitionedTable (single-column
// strategy, no payload) straight from entries, in the dense form over their
// key range or the hashed one, routing by the radix bits the way the build
// does.
func partitionedFromEntries(t testing.TB, entries []buildEntry, partitions int, dense bool) *PartitionedTable {
	t.Helper()
	rt := &PartitionedTable{
		strategy: RightSingleColumn, mask: uint64(partitions - 1), tables: make([]FlatTable, partitions),
		chunkSize: 64, Tuples: int64(len(entries)), Partitions: partitions, span: math.MaxUint64,
	}
	if dense {
		lo, hi := keyBounds(entries)
		rt.denseKey, rt.min, rt.span = true, lo, uint64(hi)-uint64(lo)
	}
	staged := make([][]buildEntry, partitions)
	for _, e := range entries {
		pt := rt.KeyPartition(e.key)
		staged[pt] = append(staged[pt], e)
	}
	for pt := range staged {
		var err error
		if rt.tables[pt], err = rt.newTable(pt, staged[pt]); err != nil {
			t.Fatal(err)
		}
	}
	rt.SizeBytes = rt.memBytes()
	return rt
}

// TestProbeBatchMatchesProbe: the batch entry point yields exactly the
// (key index, position) pairs per-key Probe calls would, in the same order,
// appended after what the destinations already hold — for entries whose range
// only the hashed form can hold, and for a dense range in both forms (per-key
// Probe against the reference too, so the two forms agree).
func TestProbeBatchMatchesProbe(t *testing.T) {
	sparse := append(seededEntries(8, 20_000, 2_000), entriesOf(math.MinInt64, math.MaxInt64, 0)...)
	denseRange := seededEntries(10, 20_000, 2_000)
	probeKeys := make([]int64, 0, 6000)
	rng := rand.New(rand.NewSource(9))
	for len(probeKeys) < cap(probeKeys) {
		probeKeys = append(probeKeys, rng.Int63n(6_000)-3_000) // a third absent
	}
	probeKeys = append(probeKeys, math.MinInt64, math.MaxInt64, 0, 0, -2_000, 1_999, -2_001, 2_000)
	for _, tc := range []struct {
		name    string
		entries []buildEntry
		dense   bool
	}{{"sparse", sparse, false}, {"dense range hashed", denseRange, false}, {"dense range dense", denseRange, true}} {
		for i := range tc.entries {
			tc.entries[i].pos = int64(i)
		}
		for _, partitions := range []int{1, 4, 64} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, partitions), func(t *testing.T) {
				probeBatchMatchesProbe(t, partitionedFromEntries(t, tc.entries, partitions, tc.dense), tc.entries, probeKeys)
			})
		}
	}
}

func probeBatchMatchesProbe(t *testing.T, rt *PartitionedTable, entries []buildEntry, probeKeys []int64) {
	checkAgainstRef(t, "Probe", rt.Probe, refTable(entries), probeKeys)
	wantIdx, wantPos := []int32{-7}, []int64{-7}
	for i, k := range probeKeys {
		for _, rpos := range rt.Probe(k) {
			wantIdx, wantPos = append(wantIdx, int32(i)), append(wantPos, rpos)
		}
	}
	gotIdx, gotPos := rt.ProbeBatch(probeKeys, []int32{-7}, []int64{-7})
	if !reflect.DeepEqual(gotIdx, wantIdx) || !reflect.DeepEqual(gotPos, wantPos) {
		t.Errorf("ProbeBatch differs from per-key Probe (%d vs %d pairs)", len(gotIdx)-1, len(wantIdx)-1)
	}
	if idx, pos := rt.ProbeBatch(nil, nil, nil); idx != nil || pos != nil {
		t.Errorf("ProbeBatch of no keys = %v, %v", idx, pos)
	}
}

// BenchmarkProbeBatch reads both forms over the same unique dense keys: 64 Ki
// random probes of a single-partition table, every one a match, in ns per key.
func BenchmarkProbeBatch(b *testing.B) {
	for _, n := range []int{15_000, 150_000, 1_500_000} {
		entries := make([]buildEntry, n)
		for i := range entries {
			entries[i] = buildEntry{key: int64(i), pos: int64(i)}
		}
		rng := rand.New(rand.NewSource(1))
		keys := make([]int64, 1<<16)
		for i := range keys {
			keys[i] = rng.Int63n(int64(n))
		}
		for _, dense := range []bool{false, true} {
			rt := partitionedFromEntries(b, entries, 1, dense)
			b.Run(fmt.Sprintf("keys=%d/dense=%v", n, dense), func(b *testing.B) {
				idx, pos := make([]int32, 0, len(keys)), make([]int64, 0, len(keys))
				for i := 0; i < b.N; i++ {
					idx, pos = rt.ProbeBatch(keys, idx[:0], pos[:0])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
			})
		}
	}
}

// Len returns the number of (key, position) entries the table holds.
func (t *FlatTable) Len() int { return len(t.pos) }
