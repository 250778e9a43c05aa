package operators

import (
	"fmt"
	"math"
	"math/bits"
)

// This file is the join's one table type, in two forms. A FlatTable maps a
// join key to the right positions holding it, in flat arrays and nothing else:
// one positions array laid out CSR-style — every key's positions contiguous,
// in ascending order — and an index into it. There is no per-key allocation
// and no pointer for the collector to follow.
//
// The index has two forms, chosen per build by DenseKeys from the key
// column's header bounds:
//
//   - dense: the key domain is narrow enough that key − min is a perfect
//     hash, so the index is an offsets array with one entry per domain value
//     of the partition (plus one closing entry) and no key is stored. A probe
//     is one unsigned compare and two loads.
//   - hashed: an open-addressing slot array probed linearly, for any other
//     domain. Its slot index comes from the HIGH bits of HashKey: the low bits
//     already chose the radix partition (PartitionedTable.mask), so within one
//     partition they are constant and would pile every key onto a few slots.
//
// Both forms are built by the same count → prefix sum → fill. A table is
// built once and is read-only from then on: Probe results alias the positions
// array, which the table owns, so any number of goroutines may probe
// concurrently and no caller may write through (or append to) what Probe
// returned.

// flatSlot is one open-addressing slot: a key and where its positions sit in
// the positions array. cnt == 0 marks an empty slot (a present key has at
// least one position), so key 0 needs no sentinel.
type flatSlot struct {
	key      int64
	off, cnt uint32
}

const flatSlotBytes = 16

// FlatTable is one partition's table (see the file comment). off is non-nil
// exactly for the dense form.
type FlatTable struct {
	slots []flatSlot // hashed: power-of-two length, at most half full; nil when empty
	off   []uint32   // dense: the positions of hash h are pos[off[h>>shift]:off[h>>shift+1]]
	width uint64     // dense: len(off) - 1, the partition's domain values; 0 when empty
	min   int64      // dense: the domain's minimum, so h = uint64(key - min)
	shift uint       // hashed: 64 - log2(len(slots)); dense: log2(partitions)
	pos   []int64    // right positions grouped by key, ascending within a key
}

// DenseKeys is the one decision between the two forms, made from a key
// column's header bounds [lo, hi] and tuple count (the statistics
// plan.ColStats carries): dense when the offsets array, 4 bytes per domain
// value, is no larger than the slot array a hashed build of the same column
// starts with, 16 bytes × NextPow2(2·tuples). An empty column, or a span too
// wide for that, stays hashed. The build and the memory model both ask here.
func DenseKeys(lo, hi, tuples int64) bool {
	return tuples > 0 && hi >= lo && uint64(hi)-uint64(lo) < 4*uint64(NextPow2(2*int(tuples)))
}

// checkEntryCount guards the uint32 slot offsets: a table holds fewer than
// 2³² positions.
func checkEntryCount(n int) error {
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("operators: %d hash entries in one join partition exceed the table's 2^32 limit; raise the partition count", n)
	}
	return nil
}

// entryCount returns how many entries runs hold, within checkEntryCount's
// limit.
func entryCount(runs [][]buildEntry) (int, error) {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	return n, checkEntryCount(n)
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
	n, err := entryCount(runs)
	if n == 0 || err != nil {
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

// newDenseTable builds the dense form of one partition's table: width domain
// values, the one of hash h = uint64(key - min) at local index h >> shift.
// Every entry's local index must be below width (the scan checked the
// header's bounds); a table of no entries is empty whatever its width. Count,
// prefix-sum, fill, as newFlatTable: each value's positions keep the order
// the entries arrive in.
func newDenseTable(min int64, shift uint, width uint64, runs ...[]buildEntry) (FlatTable, error) {
	n, err := entryCount(runs)
	if n == 0 || err != nil {
		return FlatTable{}, err
	}
	off := make([]uint32, width+1)
	for _, run := range runs {
		for _, e := range run {
			off[(uint64(e.key)-uint64(min))>>shift+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// Fill, with off[l] as value l's write cursor; it ends at off[l+1]'s old
	// value, so shifting the array one place right restores the offsets.
	pos := make([]int64, n)
	for _, run := range runs {
		for _, e := range run {
			l := (uint64(e.key) - uint64(min)) >> shift
			pos[off[l]] = e.pos
			off[l]++
		}
	}
	copy(off[1:], off[:width])
	off[0] = 0
	return FlatTable{off: off, width: width, min: min, shift: shift, pos: pos}, nil
}

// Probe returns the right positions holding key, ascending (nil if none). The
// result aliases the table's positions array: read-only.
func (t *FlatTable) Probe(key int64) []int64 {
	h := HashKey(key)
	if t.off != nil {
		h = uint64(key) - uint64(t.min)
	}
	if m := t.probe(h, key); len(m) > 0 {
		return m[:len(m):len(m)] // an append by the caller must not reach the next key's positions
	}
	return nil
}

// probe is Probe given key's hash h (HashKey, or key − min for the dense
// form), for callers that already hashed the key to pick this table's
// partition; an absent key yields an empty slice, not necessarily nil.
func (t *FlatTable) probe(h uint64, key int64) []int64 {
	if t.off != nil {
		return t.probeDense(h)
	}
	return t.probeHashed(h, key)
}

// probeDense is the dense form's probe: one unsigned compare and two loads. A
// hash past the domain's end — a key below min wraps to a huge one — fails
// the compare, as does any hash on an empty table. Small enough to inline
// into the batch probe's loop.
func (t *FlatTable) probeDense(h uint64) []int64 {
	if l := h >> t.shift; l < t.width {
		return t.pos[t.off[l]:t.off[l+1]]
	}
	return nil
}

// probeHashed is the hashed form's probe. Small enough to inline into the
// batch probe's loop.
func (t *FlatTable) probeHashed(h uint64, key int64) []int64 {
	if len(t.slots) == 0 {
		return nil
	}
	s := slotFor(t.slots, t.shift, h, key)
	return t.pos[s.off : s.off+s.cnt]
}

// memBytes is the table's heap footprint: its arrays, nothing hidden.
func (t *FlatTable) memBytes() int64 {
	return flatSlotBytes*int64(len(t.slots)) + 4*int64(len(t.off)) + 8*int64(len(t.pos))
}
