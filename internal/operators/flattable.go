package operators

import (
	"fmt"
	"math"
	"math/bits"
)

// This file is the join's one hash-table type. A FlatTable maps a join key
// to the right positions holding it, in two flat arrays and nothing else: an
// open-addressing slot array probed linearly, and one positions array laid
// out CSR-style — every key's positions contiguous, in ascending order. There
// is no per-key allocation and no pointer for the collector to follow, and a
// probe touches one slot cache line plus the key's run of positions.
//
// The slot index comes from the HIGH bits of HashKey: the low bits already
// chose the radix partition (PartitionedTable.mask), so within one partition
// they are constant and would pile every key onto a few slots.
//
// A table is built once, by newFlatTable, and is read-only from then on:
// Probe results alias the positions array, which the table owns, so any
// number of goroutines may probe concurrently and no caller may write through
// (or append to) what Probe returned.

// flatSlot is one open-addressing slot: a key and where its positions sit in
// the positions array. cnt == 0 marks an empty slot (a present key has at
// least one position), so key 0 needs no sentinel.
type flatSlot struct {
	key      int64
	off, cnt uint32
}

const flatSlotBytes = 16

// FlatTable is one partition's hash table (see the file comment).
type FlatTable struct {
	slots []flatSlot // power-of-two length, at most half full; nil when empty
	shift uint       // 64 - log2(len(slots)): HashKey's high bits index slots
	pos   []int64    // right positions grouped by key, ascending within a key
}

// checkEntryCount guards the uint32 slot offsets: a table holds fewer than
// 2³² positions.
func checkEntryCount(n int) error {
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("operators: %d hash entries in one join partition exceed the table's 2^32 limit; raise the partition count", n)
	}
	return nil
}

// newSlots allocates a slot array for n distinct keys at a load factor of at
// most one half.
func newSlots(n int) ([]flatSlot, uint) {
	size := NextPow2(2 * n)
	if size < 2 {
		size = 2
	}
	return make([]flatSlot, size), uint(64 - bits.TrailingZeros(uint(size)))
}

// slotFor returns key's slot — the one holding it, or the empty slot where it
// would be inserted — given h = HashKey(key).
func slotFor(slots []flatSlot, shift uint, h uint64, key int64) *flatSlot {
	mask := uint64(len(slots) - 1)
	for i := h >> (shift & 63); ; i++ {
		s := &slots[i&mask]
		if s.cnt == 0 || s.key == key {
			return s
		}
	}
}

// newFlatTable builds a table from runs of (key, position) entries, taken in
// order: count per key, prefix-sum into offsets, fill. Each key's positions
// keep the order the entries arrive in, so runs whose concatenation ascends
// by position (the radix build's morsel-ordered staging buffers) yield
// ascending position lists.
func newFlatTable(runs ...[]buildEntry) (FlatTable, error) {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	if n == 0 {
		return FlatTable{}, nil
	}
	if err := checkEntryCount(n); err != nil {
		return FlatTable{}, err
	}
	// Count. The distinct-key count is unknown until every entry is seen, so
	// the slots are first sized for all-distinct keys.
	slots, shift := newSlots(n)
	distinct := 0
	for _, run := range runs {
		for _, e := range run {
			s := slotFor(slots, shift, HashKey(e.key), e.key)
			if s.cnt == 0 {
				s.key = e.key
				distinct++
			}
			s.cnt++
		}
	}
	if NextPow2(2*distinct) < len(slots) {
		// Duplicated keys left the array at least twice the size they need:
		// rehash the distinct keys into a right-sized one.
		small, smallShift := newSlots(distinct)
		for _, s := range slots {
			if s.cnt != 0 {
				*slotFor(small, smallShift, HashKey(s.key), s.key) = s
			}
		}
		slots, shift = small, smallShift
	}
	// Prefix-sum in slot order.
	var off uint32
	for i := range slots {
		slots[i].off = off
		off += slots[i].cnt
	}
	// Fill, with off as each key's write cursor (cnt must stay non-zero: it
	// is what marks the slot taken), then step the cursors back.
	pos := make([]int64, n)
	for _, run := range runs {
		for _, e := range run {
			s := slotFor(slots, shift, HashKey(e.key), e.key)
			pos[s.off] = e.pos
			s.off++
		}
	}
	for i := range slots {
		slots[i].off -= slots[i].cnt
	}
	return FlatTable{slots: slots, shift: shift, pos: pos}, nil
}

// Probe returns the right positions holding key, ascending (nil if none). The
// result aliases the table's positions array: read-only.
func (t *FlatTable) Probe(key int64) []int64 {
	if m := t.probe(HashKey(key), key); len(m) > 0 {
		return m[:len(m):len(m)] // an append by the caller must not reach the next key's positions
	}
	return nil
}

// probe is Probe given h = HashKey(key), for callers that already hashed the
// key to pick this table's partition; an absent key yields an empty slice,
// not necessarily nil. Small enough to inline into their loops.
func (t *FlatTable) probe(h uint64, key int64) []int64 {
	if len(t.slots) == 0 {
		return nil
	}
	s := slotFor(t.slots, t.shift, h, key)
	return t.pos[s.off : s.off+s.cnt]
}

// memBytes is the table's heap footprint: both arrays, nothing hidden.
func (t *FlatTable) memBytes() int64 {
	return flatSlotBytes*int64(len(t.slots)) + 8*int64(len(t.pos))
}
