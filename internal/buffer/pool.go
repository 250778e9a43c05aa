// Package buffer implements the buffer pool under the column readers. The
// pool caches decoded 64KB blocks keyed by (file, block index) with LRU
// eviction, and maintains the I/O accounting the paper's analytical model
// depends on: the number of block reads (the READ term), the number of
// non-sequential reads (the SEEK term, amortized by the prefetch factor PF),
// and hits (which realize the model's F, the fraction of a column resident
// in the pool; re-accessed columns in properly pipelined plans hit here,
// which is what makes LM's DS3 re-access I/O-free in Section 3.6).
package buffer

import (
	"fmt"
	"sync"
	"time"

	"matstore/internal/cache"
)

// Key identifies one block of one registered file.
type Key struct {
	File  uint64
	Block int
}

// packed folds the key into one word, the file in the top 24 bits and the
// block in the low 40. The pool's lookup is on the scan path (Column.Window is
// 7% of paper_select), and a one-word key hashes on the runtime's fast path:
// a hit costs 27–34 ns against 49–51 ns with the two-word struct as the LRU's
// key (and 42 ns with the hand-written list this pool had before it). A key
// that does not fit is refused on the miss path, so it can never be cached
// and collide.
func (k Key) packed() uint64 { return k.File<<40 | uint64(k.Block) }

// Stats counts buffer pool traffic. All fields are monotone counters.
type Stats struct {
	// Hits is the number of Get calls served from the pool.
	Hits int64
	// Misses is the number of Get calls that invoked the loader.
	Misses int64
	// Reads equals Misses: each miss reads one block from the file.
	Reads int64
	// Seeks is the number of misses whose block was not sequential with the
	// previous miss on the same file (the disk-arm movement the model's
	// SEEK term charges, before prefetch amortization).
	Seeks int64
	// Evictions counts blocks dropped by LRU pressure.
	Evictions int64
	// BytesCached is the current (not cumulative) cache footprint estimate.
	BytesCached int64
}

// SimulatedIO returns the modelled I/O time for the traffic so far, using
// the paper's cost terms: (Seeks/PF)*SEEK + Reads*READ. PF is the prefetch
// size in blocks; seek and read are per-operation durations.
func (s Stats) SimulatedIO(pf int, seek, read time.Duration) time.Duration {
	if pf < 1 {
		pf = 1
	}
	seeks := (s.Seeks + int64(pf) - 1) / int64(pf) // prefetch amortizes seeks
	return time.Duration(seeks)*seek + time.Duration(s.Reads)*read
}

// Pool is a byte-capacity-bounded LRU cache of decoded blocks. It is safe
// for concurrent use. The recency order and byte accounting are the shared
// cache.LRU's; the pool's own are the pins and the READ/SEEK accounting.
type Pool struct {
	mu       sync.Mutex
	capBytes int64
	lru      *cache.LRU[uint64, *block] // keyed by Key.packed
	stats    Stats
	lastMiss map[uint64]int // file -> last missed block index
	nextFile uint64
}

type block struct {
	val any
	// pins counts outstanding Pin holds; pinned blocks are never evicted.
	pins int
}

func pinned(_ uint64, b *block) bool { return b.pins > 0 }

// New returns a pool bounded to capBytes of decoded-block payload.
// capBytes <= 0 means unbounded.
func New(capBytes int64) *Pool {
	return &Pool{
		capBytes: capBytes,
		lru:      cache.New[uint64, *block](),
		lastMiss: make(map[uint64]int),
	}
}

// RegisterFile allocates a file ID for use in Keys.
func (p *Pool) RegisterFile() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextFile++
	return p.nextFile
}

// Get returns the cached value for key, loading and caching it via load on a
// miss. load returns the decoded block and its approximate size in bytes.
func (p *Pool) Get(key Key, load func() (any, int64, error)) (any, error) {
	return p.get(key, load, false)
}

// Pin is Get plus a pin: the returned block cannot be evicted until a
// matching Unpin. Batched gathers pin each decoded block once and then copy
// from it with tight loops — one lock round-trip per block instead of one
// per position. Pins nest; each Pin needs its own Unpin.
func (p *Pool) Pin(key Key, load func() (any, int64, error)) (any, error) {
	return p.get(key, load, true)
}

// Unpin releases one pin on key. Unpinning a key that is no longer cached
// (e.g. after Drop) is a no-op.
func (p *Pool) Unpin(key Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.lru.Peek(key.packed())
	if !ok || b.pins == 0 {
		return
	}
	b.pins--
	if b.pins == 0 {
		// The pool may have been over capacity while the pin blocked
		// eviction; settle up now.
		p.shrink()
	}
}

func (p *Pool) get(key Key, load func() (any, int64, error), pin bool) (any, error) {
	p.mu.Lock()
	if b, ok := p.lru.Get(key.packed()); ok {
		p.stats.Hits++
		if pin {
			b.pins++
		}
		v := b.val
		p.mu.Unlock()
		return v, nil
	}
	if key.File >= 1<<24 || uint64(key.Block) >= 1<<40 {
		p.mu.Unlock()
		return nil, fmt.Errorf("buffer: key %+v does not pack into one word", key)
	}
	p.stats.Misses++
	p.stats.Reads++
	if last, ok := p.lastMiss[key.File]; !ok || key.Block != last+1 {
		p.stats.Seeks++
	}
	p.lastMiss[key.File] = key.Block
	p.mu.Unlock()

	// Load outside the lock; concurrent loaders of the same block may
	// duplicate work but converge (single-query engine: rare, harmless).
	val, size, err := load()
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.lru.Get(key.packed()); ok {
		// Raced with another loader; keep the existing block.
		if pin {
			b.pins++
		}
		return b.val, nil
	}
	b := &block{val: val}
	if pin {
		b.pins = 1
	}
	p.lru.Put(key.packed(), b, size)
	p.shrink()
	return val, nil
}

// shrink drops least-recently-used unpinned blocks until within capacity.
// The LRU never evicts its most recent entry — that both retains at least
// one block so a block larger than the capacity can still be served, and
// protects the block the current Get is about to return when pinned blocks
// hold the pool over budget. A pool whose overflow is entirely pinned stays
// temporarily over capacity until Unpin.
func (p *Pool) shrink() {
	if p.capBytes > 0 {
		p.stats.Evictions += int64(p.lru.Shrink(p.capBytes, pinned))
	}
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.BytesCached = p.lru.Bytes()
	return st
}

// ResetStats zeroes the counters (cache contents are retained). Used by the
// experiment harness between runs.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
	p.lastMiss = make(map[uint64]int)
}
