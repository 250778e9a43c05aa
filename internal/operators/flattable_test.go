package operators

import (
	"bytes"
	"math"
	"math/rand"
	"os"
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
		}
	}
}

// TestFlatTableSortGroups covers the spill load: entries arriving out of
// position order (interleaved morsel flushes) still probe ascending.
func TestFlatTableSortGroups(t *testing.T) {
	entries := seededEntries(6, 5000, 300)
	rand.New(rand.NewSource(7)).Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	tbl, err := newFlatTable(entries)
	if err != nil {
		t.Fatal(err)
	}
	tbl.sortGroups()
	ref := refTable(seededEntries(6, 5000, 300)) // position order
	checkAgainstRef(t, "shuffled", tbl.Probe, ref, nil)
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
// strategy, no payload) straight from entries, routing by the radix bits the
// way the build does.
func partitionedFromEntries(t *testing.T, entries []buildEntry, partitions int) *PartitionedTable {
	t.Helper()
	rt := &PartitionedTable{
		strategy: RightSingleColumn, mask: uint64(partitions - 1), tables: make([]FlatTable, partitions),
		chunkSize: 64, Tuples: int64(len(entries)), Partitions: partitions,
	}
	staged := make([][]buildEntry, partitions)
	for _, e := range entries {
		pt := rt.KeyPartition(e.key)
		staged[pt] = append(staged[pt], e)
	}
	for pt := range staged {
		var err error
		if rt.tables[pt], err = newFlatTable(staged[pt]); err != nil {
			t.Fatal(err)
		}
	}
	rt.SizeBytes = rt.memBytes()
	return rt
}

// TestProbeBatchMatchesProbe: the batch entry point yields exactly the
// (key index, position) pairs per-key Probe calls would, in the same order,
// appended after what the destinations already hold.
func TestProbeBatchMatchesProbe(t *testing.T) {
	entries := append(seededEntries(8, 20_000, 2_000), entriesOf(math.MinInt64, math.MaxInt64, 0)...)
	for i := range entries {
		entries[i].pos = int64(i)
	}
	probeKeys := make([]int64, 0, 6000)
	rng := rand.New(rand.NewSource(9))
	for len(probeKeys) < cap(probeKeys) {
		probeKeys = append(probeKeys, rng.Int63n(6_000)-3_000) // a third absent
	}
	probeKeys = append(probeKeys, math.MinInt64, math.MaxInt64, 0, 0)
	for _, partitions := range []int{1, 4, 64} {
		rt := partitionedFromEntries(t, entries, partitions)
		wantIdx, wantPos := []int32{-7}, []int64{-7}
		for i, k := range probeKeys {
			for _, rpos := range rt.Probe(k) {
				wantIdx, wantPos = append(wantIdx, int32(i)), append(wantPos, rpos)
			}
		}
		gotIdx, gotPos := rt.ProbeBatch(probeKeys, []int32{-7}, []int64{-7})
		if !reflect.DeepEqual(gotIdx, wantIdx) || !reflect.DeepEqual(gotPos, wantPos) {
			t.Errorf("p=%d: ProbeBatch differs from per-key Probe (%d vs %d pairs)", partitions, len(gotIdx)-1, len(wantIdx)-1)
		}
		if idx, pos := rt.ProbeBatch(nil, nil, nil); idx != nil || pos != nil {
			t.Errorf("p=%d: ProbeBatch of no keys = %v, %v", partitions, idx, pos)
		}
	}
}

// TestDemotedFileDeterministic: demoting walks slots, not a map, so the same
// table writes the same bytes every time, and the rehydrated table probes
// identically — extremes, duplicates and empty partitions included.
func TestDemotedFileDeterministic(t *testing.T) {
	entries := append(seededEntries(10, 30_000, 4_000), entriesOf(math.MinInt64, math.MaxInt64, 0, 0)...)
	for i := range entries {
		entries[i].pos = int64(i)
	}
	ref := refTable(entries)
	for _, partitions := range []int{1, 8, 65536} { // 65536: most partitions empty
		rt := partitionedFromEntries(t, entries, partitions)
		dir := t.TempDir()
		var files [2][]byte
		var path string
		for i := range files {
			var err error
			if path, _, err = WriteDemoted(rt, dir); err != nil {
				t.Fatal(err)
			}
			if files[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("p=%d: two demotions of one table wrote different bytes", partitions)
		}
		back, err := LoadDemoted(path, nil, nil)
		if err != nil {
			t.Fatalf("p=%d: %v", partitions, err)
		}
		checkAgainstRef(t, "rehydrated", back.Probe, ref, []int64{-1 << 50, 1 << 50, 4_001})
		if back.SizeBytes != rt.SizeBytes {
			t.Errorf("p=%d: rehydrated SizeBytes = %d, want %d", partitions, back.SizeBytes, rt.SizeBytes)
		}
	}
}
