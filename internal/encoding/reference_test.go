package encoding

// The scalar references the differential kernel suite and the FilterAt fuzz
// target check the compiled filters against: one Predicate.Match dispatch
// per value, run or distinct value. No query runs them.

import (
	"matstore/internal/positions"
	"matstore/internal/pred"
)

// filterScalar is the retained per-value reference implementation of Filter:
// one Predicate.Match dispatch per value, runs accumulated through the
// Builder and replayed into a forced bitmap. The differential kernel suite
// checks the compiled path against it; it is not used by query execution.
func (m *PlainMini) filterScalar(p pred.Predicate) positions.Set {
	b := positions.NewBuilder(m.cov)
	b.ForceBitmap()
	for _, s := range m.segs {
		base := s.start
		runStart := int64(-1)
		for i, v := range s.vals {
			if p.Match(v) {
				if runStart < 0 {
					runStart = base + int64(i)
				}
			} else if runStart >= 0 {
				b.AddRange(positions.Range{Start: runStart, End: base + int64(i)})
				runStart = -1
			}
		}
		if runStart >= 0 {
			b.AddRange(positions.Range{Start: runStart, End: s.end()})
		}
	}
	return b.Build()
}

// filterAtScalar is the retained per-value reference implementation of
// FilterAt (see filterScalar).
func (m *PlainMini) filterAtScalar(ps positions.Set, p pred.Predicate) positions.Set {
	b := positions.NewBuilder(m.cov)
	it := ps.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			return b.Build()
		}
		r = r.Intersect(m.cov)
		if r.Empty() {
			continue
		}
		si := m.seg(r.Start)
		for pos := r.Start; pos < r.End; {
			s := m.segs[si]
			end := r.End
			if s.end() < end {
				end = s.end()
			}
			vals := s.vals[pos-s.start : end-s.start]
			runStart := int64(-1)
			for i, v := range vals {
				if p.Match(v) {
					if runStart < 0 {
						runStart = pos + int64(i)
					}
				} else if runStart >= 0 {
					b.AddRange(positions.Range{Start: runStart, End: pos + int64(i)})
					runStart = -1
				}
			}
			if runStart >= 0 {
				b.AddRange(positions.Range{Start: runStart, End: end})
			}
			pos = end
			si++
		}
	}
}

// filterScalar is the retained per-run reference implementation of Filter:
// one Predicate.Match dispatch per run. The differential kernel suite checks
// the interval kernel against it; it is not used by query execution.
func (m *RLEMini) filterScalar(p pred.Predicate) positions.Set {
	b := positions.NewBuilder(m.cov)
	for _, t := range m.triples {
		if p.Match(t.Value) {
			b.AddRange(t.Cover())
		}
	}
	return b.Build()
}

// filterAtScalar is the retained reference implementation of FilterAt (see
// filterScalar).
func (m *RLEMini) filterAtScalar(ps positions.Set, p pred.Predicate) positions.Set {
	b := positions.NewBuilder(m.cov)
	it := ps.Runs()
	ti := 0
	for {
		r, ok := it.Next()
		if !ok {
			return b.Build()
		}
		r = r.Intersect(m.cov)
		if r.Empty() {
			continue
		}
		for ti < len(m.triples) && m.triples[ti].End() <= r.Start {
			ti++
		}
		for tj := ti; tj < len(m.triples) && m.triples[tj].Start < r.End; tj++ {
			if p.Match(m.triples[tj].Value) {
				if o := m.triples[tj].Cover().Intersect(r); !o.Empty() {
					b.AddRange(o)
				}
			}
		}
	}
}

// filterScalar is the retained reference implementation of Filter: one
// Predicate.Match dispatch per distinct value. The differential kernel suite
// checks the interval path against it; it is not used by query execution.
func (m *BVMini) filterScalar(p pred.Predicate) positions.Set {
	var idxs []int
	for i, v := range m.vals {
		if p.Match(v) {
			idxs = append(idxs, i)
		}
	}
	switch len(idxs) {
	case 0:
		return positions.Empty{}
	case 1:
		return m.bms[idxs[0]]
	default:
		acc := m.bms[idxs[0]].Clone()
		for _, i := range idxs[1:] {
			acc.Or(m.bms[i])
		}
		return acc
	}
}
