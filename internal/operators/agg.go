package operators

import (
	"cmp"
	"fmt"
	"slices"

	"matstore/internal/encoding"
	"matstore/internal/positions"
	"matstore/internal/rows"
)

// AggFunc is an aggregate function over a group's values.
type AggFunc uint8

const (
	// AggSum is SUM(col) — the paper's experiment aggregate.
	AggSum AggFunc = iota
	// AggCount is COUNT(col).
	AggCount
	// AggAvg is AVG(col), reported as the truncated integer quotient.
	AggAvg
	// AggMin is MIN(col).
	AggMin
	// AggMax is MAX(col).
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// ParseAggFunc converts a string such as "sum" to an AggFunc.
func ParseAggFunc(s string) (AggFunc, error) {
	switch s {
	case "sum", "SUM":
		return AggSum, nil
	case "count", "COUNT":
		return AggCount, nil
	case "avg", "AVG":
		return AggAvg, nil
	case "min", "MIN":
		return AggMin, nil
	case "max", "MAX":
		return AggMax, nil
	default:
		return 0, fmt.Errorf("operators: unknown aggregate %q", s)
	}
}

// Aggregator implements FN(val) GROUP BY key over int64 keys. It accepts
// input either tuple-at-a-time (the EM path: constructed tuples flow into
// the aggregator) or run-at-a-time (the LM path: whole compressed runs
// contribute pre-aggregated statistics without any tuple ever being
// constructed — Section 4.2's "operate directly on compressed data").
type Aggregator struct {
	// Fn selects the emitted aggregate; all statistics are maintained so
	// the same pass can serve any function.
	Fn AggFunc
	// groups holds one entry per distinct key in first-seen order and slot
	// maps a key to its index there, so a contribution to a known key is one
	// map lookup and an update in place.
	groups []GroupStats
	slot   map[int64]int32
	// TuplesIn counts tuple-at-a-time contributions (EM accounting).
	TuplesIn int64
	// RunsIn counts run-at-a-time contributions (LM accounting).
	RunsIn int64
}

// NewAggregator returns an empty aggregator for fn.
func NewAggregator(fn AggFunc) *Aggregator {
	return &Aggregator{Fn: fn, slot: make(map[int64]int32)}
}

// NewSumAggregator returns an empty SUM aggregator.
func NewSumAggregator() *Aggregator { return NewAggregator(AggSum) }

// add folds st (Count > 0) into key's group.
func (a *Aggregator) add(key int64, st encoding.RunStats) {
	i, ok := a.slot[key]
	if !ok {
		a.slot[key] = int32(len(a.groups))
		a.groups = append(a.groups, GroupStats{Key: key, Sum: st.Sum, Count: st.Count, Min: st.Min, Max: st.Max})
		return
	}
	g := &a.groups[i]
	g.Sum += st.Sum
	g.Count += st.Count
	g.Min = min(g.Min, st.Min)
	g.Max = max(g.Max, st.Max)
}

// fold contributes aligned key/value vectors. Each run of equal keys is
// summed up locally and touches the map once: integer sum, count, min and max
// are associative, so the groups end up exactly as if every value had been
// added on its own, and sorted or clustered keys cost a map access per run
// instead of one per tuple.
func (a *Aggregator) fold(keys, vals []int64) {
	vals = vals[:len(keys)]
	for i := 0; i < len(keys); {
		k, v := keys[i], vals[i]
		st := encoding.RunStats{Sum: v, Count: 1, Min: v, Max: v}
		for i++; i < len(keys) && keys[i] == k; i++ {
			v = vals[i]
			st.Sum += v
			st.Count++
			st.Min = min(st.Min, v)
			st.Max = max(st.Max, v)
		}
		a.add(k, st)
	}
}

// AddTuple contributes one constructed tuple.
func (a *Aggregator) AddTuple(key, val int64) {
	a.add(key, encoding.RunStats{Sum: val, Count: 1, Min: val, Max: val})
	a.TuplesIn++
}

// AddBatch contributes aligned key/value vectors, which it only reads: the
// caller may recycle them once it returns.
func (a *Aggregator) AddBatch(keys, vals []int64) {
	a.fold(keys, vals)
	a.TuplesIn += int64(len(keys))
}

// AddRun contributes pre-aggregated statistics for key (one compressed
// run's worth of work in a single call).
func (a *Aggregator) AddRun(key int64, st encoding.RunStats) {
	if st.Count == 0 {
		return
	}
	a.add(key, st)
	a.RunsIn++
}

// Groups returns the number of distinct keys seen.
func (a *Aggregator) Groups() int { return len(a.groups) }

// MemBytes is the aggregator's heap footprint — what keeping one alive behind
// a cached result retains: the group slab at its capacity plus an estimate for
// the slot map. A map[int64]int32 slot is 17 bytes (16 and a control byte) and
// the table runs between 7/16 and 7/8 full, 20 to 39 bytes an entry measured;
// the estimate takes the upper end, so an undercharge cannot hide here.
func (a *Aggregator) MemBytes() int64 {
	const groupBytes, slotBytes = 40, 40
	return groupBytes*int64(cap(a.groups)) + slotBytes*int64(len(a.slot))
}

// Mergeable is the mergeable-state contract the morsel-parallel executor
// relies on: a per-worker partial result that can absorb another partial
// computed over a disjoint position range. Merging any partition of the
// input must yield the same state as processing the input in one shot.
// (Row partials merge through rows.Result.Append and position partials
// through positions.Concat; the aggregator is the operator whose state
// needs this contract.)
type Mergeable[T any] interface {
	Merge(other T)
}

var _ Mergeable[*Aggregator] = (*Aggregator)(nil)

// Merge absorbs another aggregator's partial state: per-key statistics
// combine exactly (sums and counts add, min/max fold), so merging N
// per-morsel partials equals single-shot aggregation for every AggFunc.
// The other aggregator must not be used afterwards.
func (a *Aggregator) Merge(other *Aggregator) {
	if other == nil {
		return
	}
	a.AbsorbGroups(other.groups)
	a.TuplesIn += other.TuplesIn
	a.RunsIn += other.RunsIn
}

// GroupStats is one group's mergeable aggregate state in wire form: the
// Sum/Count/Min/Max statistics a shard exports for key so a coordinator can
// absorb partials from disjoint row ranges and re-emit — the network form
// of the same Merge contract the morsel executor uses in memory. Emitted
// aggregate VALUES cannot merge across shards (AVG loses its count), so the
// wire format ships the statistics, never the emitted rows.
type GroupStats struct {
	Key   int64 `json:"key"`
	Sum   int64 `json:"sum"`
	Count int64 `json:"count"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// ExportGroups returns the aggregator's per-group state sorted by key —
// the partial a shard ships to the coordinator.
func (a *Aggregator) ExportGroups() []GroupStats {
	out := slices.Clone(a.groups)
	slices.SortFunc(out, func(x, y GroupStats) int { return cmp.Compare(x.Key, y.Key) })
	return out
}

// AbsorbGroups merges exported per-group partials into the aggregator,
// exactly as Merge would absorb the aggregator they came from.
func (a *Aggregator) AbsorbGroups(gs []GroupStats) {
	for _, g := range gs {
		if g.Count == 0 {
			continue
		}
		a.add(g.Key, encoding.RunStats{Sum: g.Sum, Count: g.Count, Min: g.Min, Max: g.Max})
	}
}

// Emit materializes the aggregate result, sorted by key, with the given
// output column names. These are the only tuples an LM aggregation plan
// ever constructs.
func (a *Aggregator) Emit(keyName, outName string) *rows.Result {
	res := rows.NewResult(keyName, outName)
	res.Reserve(len(a.groups))
	for _, st := range a.ExportGroups() {
		var v int64
		switch a.Fn {
		case AggSum:
			v = st.Sum
		case AggCount:
			v = st.Count
		case AggAvg:
			v = st.Sum / st.Count
		case AggMin:
			v = st.Min
		case AggMax:
			v = st.Max
		}
		res.AppendRow(st.Key, v)
	}
	return res
}

// AggregateCompressedChunk aggregates one chunk entirely on compressed
// data: keyMC supplies group keys, valMC the aggregated values, and desc
// the valid positions. No tuples are constructed:
//
//   - RLE keys contribute one AddRun per (run ∩ descriptor-run) overlap,
//     with the value side folded by StatsRange (which itself multiplies
//     value×length for RLE values and popcounts for bit-vector values).
//   - Bit-vector keys contribute one AddRun per distinct key value, using
//     bit-string ∧ descriptor.
//   - Plain keys fall back to value-at-a-time accumulation within
//     descriptor runs.
func AggregateCompressedChunk(a *Aggregator, keyMC, valMC encoding.MiniColumn, desc positions.Set) {
	switch key := keyMC.(type) {
	case *encoding.RLEMini:
		triples := key.Triples()
		ti := 0
		it := desc.Runs()
		for {
			r, ok := it.Next()
			if !ok {
				return
			}
			for ti < len(triples) && triples[ti].End() <= r.Start {
				ti++
			}
			for tj := ti; tj < len(triples) && triples[tj].Start < r.End; tj++ {
				o := triples[tj].Cover().Intersect(r)
				if o.Empty() {
					continue
				}
				a.AddRun(triples[tj].Value, encoding.StatsRange(valMC, o))
			}
		}
	case *encoding.BVMini:
		for i, v := range key.DistinctValues() {
			ps := positions.And(key.BitString(i), desc)
			if ps.Count() == 0 {
				continue
			}
			a.AddRun(v, encoding.StatsSet(valMC, ps))
		}
	default:
		var keyBuf, valBuf []int64
		it := desc.Runs()
		for {
			r, ok := it.Next()
			if !ok {
				return
			}
			keyBuf = keyMC.Extract(keyBuf[:0], positions.Ranges{r})
			valBuf = valMC.Extract(valBuf[:0], positions.Ranges{r})
			a.fold(keyBuf, valBuf)
			a.RunsIn++
		}
	}
}
