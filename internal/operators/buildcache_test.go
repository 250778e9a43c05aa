package operators

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func bcKey(proj string, partitions int) BuildKey {
	return BuildKey{Proj: proj, KeyCol: "k", Payload: "p", Strategy: RightMaterialized,
		Partitions: partitions, ChunkSize: 1024}
}

func fakeTable(bytes int64) *PartitionedTable {
	return &PartitionedTable{SizeBytes: bytes, Tuples: bytes / 8}
}

// TestBuildCacheHitMiss: a miss builds once, the repeat hits without calling
// build, and distinct keys build separately.
func TestBuildCacheHitMiss(t *testing.T) {
	c := NewBuildCache(1 << 20)
	calls := 0
	build := func() (*PartitionedTable, error) { calls++; return fakeTable(100), nil }

	rt1, hit, err := c.GetOrBuild(bcKey("a", 0), build)
	if err != nil || hit || calls != 1 {
		t.Fatalf("first get: hit=%v calls=%d err=%v", hit, calls, err)
	}
	rt2, hit, err := c.GetOrBuild(bcKey("a", 0), func() (*PartitionedTable, error) {
		t.Fatal("repeat invoked build")
		return nil, nil
	})
	if err != nil || !hit || rt2 != rt1 {
		t.Fatalf("repeat: hit=%v same=%v err=%v", hit, rt2 == rt1, err)
	}
	if _, hit, _ = c.GetOrBuild(bcKey("a", 8), build); hit {
		t.Error("different partition override hit the cache")
	}
	if _, hit, _ = c.GetOrBuild(bcKey("b", 0), build); hit {
		t.Error("different projection hit the cache")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 3 || st.Bytes != 300 {
		t.Errorf("stats = %+v, want 1 hit, 3 misses, 3 entries, 300 bytes", st)
	}
}

// TestBuildCacheLRUEviction: inserts over the byte budget evict the least
// recently used entries; touching an entry protects it.
func TestBuildCacheLRUEviction(t *testing.T) {
	c := NewBuildCache(250)
	mk := func(proj string) {
		c.GetOrBuild(bcKey(proj, 0), func() (*PartitionedTable, error) { return fakeTable(100), nil })
	}
	mk("a")
	mk("b")
	// Touch "a" so "b" is the LRU victim.
	if _, hit, _ := c.GetOrBuild(bcKey("a", 0), func() (*PartitionedTable, error) { return fakeTable(100), nil }); !hit {
		t.Fatal("touch of a missed")
	}
	mk("c") // 300 bytes > 250: evicts b
	if _, hit, _ := c.GetOrBuild(bcKey("b", 0), func() (*PartitionedTable, error) { return fakeTable(100), nil }); hit {
		t.Error("LRU victim b still cached")
	}
	st := c.Stats()
	if st.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", st.Evictions)
	}
	if st.Bytes > 250 {
		t.Errorf("cache bytes %d exceed capacity 250", st.Bytes)
	}
	// An entry larger than the whole budget is served but never retained.
	if _, hit, _ := c.GetOrBuild(bcKey("huge", 0), func() (*PartitionedTable, error) { return fakeTable(1000), nil }); hit {
		t.Error("oversized build reported as hit")
	}
	if _, hit, _ := c.GetOrBuild(bcKey("huge", 0), func() (*PartitionedTable, error) { return fakeTable(1000), nil }); hit {
		t.Error("oversized build was retained")
	}
}

// TestBuildCacheErrorNotCached: a failing build is returned to the caller
// and retains nothing.
func TestBuildCacheErrorNotCached(t *testing.T) {
	c := NewBuildCache(0)
	boom := errors.New("scan failed")
	if _, _, err := c.GetOrBuild(bcKey("a", 0), func() (*PartitionedTable, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	calls := 0
	if _, hit, err := c.GetOrBuild(bcKey("a", 0), func() (*PartitionedTable, error) {
		calls++
		return fakeTable(10), nil
	}); err != nil || hit || calls != 1 {
		t.Errorf("retry after failure: hit=%v calls=%d err=%v", hit, calls, err)
	}
}

// TestBuildCacheSingleFlight: concurrent misses on one key share a single
// build instead of racing duplicate scans.
func TestBuildCacheSingleFlight(t *testing.T) {
	c := NewBuildCache(0)
	var mu sync.Mutex
	calls := 0
	gate := make(chan struct{})
	build := func() (*PartitionedTable, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-gate
		return fakeTable(32), nil
	}
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*PartitionedTable, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt, _, err := c.GetOrBuild(bcKey("a", 0), build)
			if err != nil {
				t.Error(err)
			}
			results[i] = rt
		}(i)
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Errorf("build ran %d times for one key", calls)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different table", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single flight)", st.Misses)
	}
}

// TestBuildCacheSingleFlightOversize: concurrent misses on a key whose table
// is too large to retain still share one build — every waiter takes the
// flight's table and counts as a hit instead of rebuilding in turn.
func TestBuildCacheSingleFlightOversize(t *testing.T) {
	const size, waiters = 1000, 8
	c := NewBuildCache(size / 2)
	var calls atomic.Int32
	gate := make(chan struct{})
	build := func() (*PartitionedTable, error) {
		calls.Add(1)
		<-gate
		return fakeTable(size), nil
	}
	var wg sync.WaitGroup
	results := make([]*PartitionedTable, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt, _, err := c.GetOrBuild(bcKey("a", 0), build)
			if err != nil {
				t.Error(err)
			}
			results[i] = rt
		}(i)
	}
	for c.Stats().WaitedBuilds != waiters-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("build ran %d times for one key", n)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different table", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != waiters-1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 miss, %d hits, nothing retained", st, waiters-1)
	}
}
