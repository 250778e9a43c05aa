package buffer

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func load(v int, size int64) func() (any, int64, error) {
	return func() (any, int64, error) { return v, size, nil }
}

func TestGetHitMiss(t *testing.T) {
	p := New(0)
	f := p.RegisterFile()
	v, err := p.Get(Key{f, 0}, load(42, 100))
	if err != nil || v.(int) != 42 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	v, err = p.Get(Key{f, 0}, func() (any, int64, error) {
		t.Error("loader called on hit")
		return nil, 0, nil
	})
	if err != nil || v.(int) != 42 {
		t.Fatalf("Get(hit) = %v, %v", v, err)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Reads != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSeekAccounting(t *testing.T) {
	p := New(0)
	f := p.RegisterFile()
	g := p.RegisterFile()
	// Sequential misses on f: blocks 0,1,2 -> 1 seek.
	for i := 0; i < 3; i++ {
		p.Get(Key{f, i}, load(i, 10))
	}
	// Jump back: another seek.
	p.Get(Key{f, 0}, func() (any, int64, error) {
		t.Error("block 0 should be cached")
		return nil, 0, nil
	})
	p.Get(Key{f, 10}, load(0, 10)) // non-sequential: seek
	// New file: first miss is a seek.
	p.Get(Key{g, 0}, load(0, 10))
	s := p.Stats()
	if s.Seeks != 3 {
		t.Errorf("Seeks = %d, want 3 (initial + jump + new file)", s.Seeks)
	}
	if s.Reads != 5 {
		t.Errorf("Reads = %d, want 5", s.Reads)
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(250)
	f := p.RegisterFile()
	for i := 0; i < 3; i++ {
		p.Get(Key{f, i}, load(i, 100))
	}
	// Capacity 250, three 100-byte blocks: block 0 must have been evicted.
	if p.Contains(Key{f, 0}) {
		t.Error("block 0 not evicted")
	}
	if !p.Contains(Key{f, 1}) || !p.Contains(Key{f, 2}) {
		t.Error("recent blocks evicted")
	}
	if s := p.Stats(); s.Evictions != 1 || s.BytesCached != 200 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUOrderUpdatedOnHit(t *testing.T) {
	p := New(250)
	f := p.RegisterFile()
	p.Get(Key{f, 0}, load(0, 100))
	p.Get(Key{f, 1}, load(1, 100))
	p.Get(Key{f, 0}, load(0, 100)) // touch 0: now 1 is LRU
	p.Get(Key{f, 2}, load(2, 100)) // evicts 1
	if p.Contains(Key{f, 1}) {
		t.Error("block 1 should be evicted")
	}
	if !p.Contains(Key{f, 0}) {
		t.Error("recently touched block 0 evicted")
	}
}

func TestOversizedBlockStillServed(t *testing.T) {
	p := New(10)
	f := p.RegisterFile()
	v, err := p.Get(Key{f, 0}, load(7, 1000))
	if err != nil || v.(int) != 7 {
		t.Fatalf("oversized Get = %v, %v", v, err)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1 (retain at least one entry)", p.Len())
	}
}

func TestLoaderError(t *testing.T) {
	p := New(0)
	f := p.RegisterFile()
	wantErr := errors.New("disk on fire")
	_, err := p.Get(Key{f, 0}, func() (any, int64, error) { return nil, 0, wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	// A failed load must not poison the cache.
	v, err := p.Get(Key{f, 0}, load(1, 1))
	if err != nil || v.(int) != 1 {
		t.Fatalf("retry Get = %v, %v", v, err)
	}
}

func TestDropAndResetStats(t *testing.T) {
	p := New(0)
	f := p.RegisterFile()
	p.Get(Key{f, 0}, load(0, 10))
	p.ResetStats()
	if s := p.Stats(); s.Misses != 0 || s.BytesCached != 10 {
		t.Errorf("after ResetStats: %+v", s)
	}
	// After ResetStats the next miss counts a fresh seek.
	p.Get(Key{f, 1}, load(1, 10))
	if s := p.Stats(); s.Seeks != 1 {
		t.Errorf("Seeks after reset = %d, want 1", s.Seeks)
	}
	p.Drop()
	if p.Len() != 0 {
		t.Error("Drop left entries")
	}
	if p.Contains(Key{f, 0}) {
		t.Error("Drop left block 0")
	}
}

func TestSimulatedIO(t *testing.T) {
	s := Stats{Seeks: 10, Reads: 100}
	// PF=1: 10 seeks * 2500us + 100 reads * 1000us.
	got := s.SimulatedIO(1, 2500*time.Microsecond, 1000*time.Microsecond)
	want := 10*2500*time.Microsecond + 100*1000*time.Microsecond
	if got != want {
		t.Errorf("SimulatedIO(pf=1) = %v, want %v", got, want)
	}
	// PF=4 amortizes seeks: ceil(10/4)=3.
	got = s.SimulatedIO(4, 2500*time.Microsecond, 1000*time.Microsecond)
	want = 3*2500*time.Microsecond + 100*1000*time.Microsecond
	if got != want {
		t.Errorf("SimulatedIO(pf=4) = %v, want %v", got, want)
	}
	if s.SimulatedIO(0, time.Second, 0) != 10*time.Second {
		t.Error("pf<1 not clamped")
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterFile()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{f, i % 50}
				v, err := p.Get(k, func() (any, int64, error) {
					return fmt.Sprintf("block-%d", k.Block), 64, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.(string) != fmt.Sprintf("block-%d", k.Block) {
					t.Errorf("wrong value for %v: %v", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := p.Stats().Hits + p.Stats().Misses; got != 1600 {
		t.Errorf("total accesses = %d, want 1600", got)
	}
}

// TestPinBlocksEviction: pinned entries survive arbitrary capacity pressure;
// unpinning settles the pool back under its budget.
func TestPinBlocksEviction(t *testing.T) {
	p := New(250) // room for two 100-byte blocks (plus the keep-one rule)
	f := p.RegisterFile()
	if _, err := p.Pin(Key{f, 0}, load(0, 100)); err != nil {
		t.Fatal(err)
	}
	// Flood the pool: block 0 is pinned and must survive.
	for i := 1; i <= 10; i++ {
		if _, err := p.Get(Key{f, i}, load(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Contains(Key{f, 0}) {
		t.Fatal("pinned block was evicted")
	}
	// A pinned re-Get must not load again.
	hitsBefore := p.Stats().Hits
	if v, err := p.Get(Key{f, 0}, load(-1, 100)); err != nil || v.(int) != 0 {
		t.Fatalf("re-Get of pinned block = %v, %v", v, err)
	}
	if p.Stats().Hits != hitsBefore+1 {
		t.Fatal("re-Get of pinned block was not a hit")
	}
	p.Unpin(Key{f, 0})
	// After unpinning, pressure can evict it again.
	for i := 11; i <= 20; i++ {
		if _, err := p.Get(Key{f, i}, load(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Contains(Key{f, 0}) {
		t.Fatal("unpinned cold block survived eviction pressure")
	}
}

// TestPinNests: two pins need two unpins before eviction may reclaim.
func TestPinNests(t *testing.T) {
	p := New(150)
	f := p.RegisterFile()
	for i := 0; i < 2; i++ {
		if _, err := p.Pin(Key{f, 0}, load(7, 100)); err != nil {
			t.Fatal(err)
		}
	}
	p.Unpin(Key{f, 0})
	for i := 1; i <= 5; i++ {
		if _, err := p.Get(Key{f, i}, load(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Contains(Key{f, 0}) {
		t.Fatal("block with one remaining pin was evicted")
	}
	p.Unpin(Key{f, 0})
	p.Unpin(Key{f, 0}) // extra unpin of an unpinned entry is a no-op
	for i := 6; i <= 10; i++ {
		if _, err := p.Get(Key{f, i}, load(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Contains(Key{f, 0}) {
		t.Fatal("fully unpinned block survived eviction pressure")
	}
	p.Unpin(Key{f, 99}) // unknown key is a no-op
}

// TestPinConcurrent hammers Pin/Unpin with eviction pressure under -race.
func TestPinConcurrent(t *testing.T) {
	p := New(500)
	f := p.RegisterFile()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{f, (w*31 + i) % 16}
				v, err := p.Pin(k, load(k.Block, 100))
				if err != nil || v.(int) != k.Block {
					t.Errorf("Pin = %v, %v", v, err)
					return
				}
				p.Unpin(k)
			}
		}(w)
	}
	wg.Wait()
}

// TestPinnedPressureKeepsMRU: when pinned entries hold the pool over
// budget, a fresh Get's entry (the MRU) must not be evicted to pay for
// them — otherwise every unpinned block would thrash on reload.
func TestPinnedPressureKeepsMRU(t *testing.T) {
	p := New(250)
	f := p.RegisterFile()
	for i := 0; i < 3; i++ { // 300 pinned bytes: over budget by pins alone
		if _, err := p.Pin(Key{f, i}, load(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Get(Key{f, 7}, load(7, 100)); err != nil {
		t.Fatal(err)
	}
	if !p.Contains(Key{f, 7}) {
		t.Fatal("fresh MRU entry evicted to pay for pinned overflow")
	}
	misses := p.Stats().Misses
	if _, err := p.Get(Key{f, 7}, load(7, 100)); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Misses != misses {
		t.Fatal("re-Get of fresh entry reloaded instead of hitting")
	}
}

// TestKeyThatDoesNotPack: the pool keys its LRU by one packed word, so a key
// outside the packing (a file id past 24 bits, a block index past 40 or
// negative) is refused with an error instead of being cached where it could
// collide with another block's word.
func TestKeyThatDoesNotPack(t *testing.T) {
	p := New(0)
	load := func() (any, int64, error) {
		t.Error("loader ran for a key the pool must refuse")
		return nil, 0, nil
	}
	for _, key := range []Key{{File: 1 << 24, Block: 0}, {File: 1, Block: 1 << 40}, {File: 1, Block: -1}} {
		if _, err := p.Get(key, load); err == nil {
			t.Errorf("key %+v was accepted", key)
		}
		if p.Contains(key) || p.Len() != 0 {
			t.Errorf("key %+v was cached", key)
		}
	}
}
