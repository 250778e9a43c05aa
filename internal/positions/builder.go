package positions

// Builder accumulates positions (as runs or single positions, in ascending
// order) and chooses an output representation: ranges when the result is a
// few long runs, a list when the result is sparse single positions, and a
// bitmap otherwise. A data source applying a predicate to a chunk uses one
// Builder per chunk; the representation decision mirrors the paper's
// observation that predicate outputs over sorted/RLE data are ranges while
// outputs over unsorted data are bit-strings.
type Builder struct {
	runs    Ranges
	lastEnd int64
	count   int64
	// forceBitmap requests bitmap output regardless of shape (the scalar
	// filter references replay their runs into one).
	forceBitmap bool
	// extent, when non-empty, fixes the covering range of a bitmap output.
	extent Range
}

// NewBuilder returns a Builder whose bitmap output (if chosen) covers extent.
func NewBuilder(extent Range) *Builder {
	return &Builder{extent: extent, lastEnd: -1}
}

// ForceBitmap makes Build always return a bitmap covering the extent.
func (b *Builder) ForceBitmap() { b.forceBitmap = true }

// Add appends a single position, which must be >= any previously added
// position (equal adjacent adds coalesce).
func (b *Builder) Add(pos int64) { b.AddRange(Range{pos, pos + 1}) }

// AddRange appends a run. Runs must arrive in ascending order; adjacent or
// overlapping runs are coalesced.
func (b *Builder) AddRange(r Range) {
	if r.Empty() {
		return
	}
	if n := len(b.runs); n > 0 && r.Start <= b.runs[n-1].End {
		if r.End > b.runs[n-1].End {
			b.count += r.End - b.runs[n-1].End
			b.runs[n-1].End = r.End
		}
		return
	}
	b.runs = append(b.runs, r)
	b.count += r.Len()
}

// Count returns the number of positions added so far.
func (b *Builder) Count() int64 { return b.count }

// Build returns the accumulated set in the chosen representation.
//
// Heuristics: empty → Empty; forced → bitmap; avg run length >= 4 or few
// runs → Ranges; all runs singletons and sparse → List; otherwise bitmap.
func (b *Builder) Build() Set {
	if b.count == 0 {
		return Empty{}
	}
	if b.forceBitmap {
		return b.buildBitmap()
	}
	nRuns := int64(len(b.runs))
	if b.count >= nRuns*4 || nRuns <= 4 {
		return b.runs
	}
	if b.count == nRuns && b.count <= 1024 {
		out := make(List, 0, b.count)
		for _, r := range b.runs {
			out = append(out, r.Start)
		}
		return out
	}
	return b.buildBitmap()
}

func (b *Builder) buildBitmap() Set {
	ext := b.extent
	if ext.Empty() {
		ext = Range{b.runs[0].Start, b.runs[len(b.runs)-1].End}
	}
	start := ext.Start &^ 63
	bm := NewBitmap(start, ext.End-start)
	for _, r := range b.runs {
		bm.SetRange(r)
	}
	return bm
}

// ToBitmap converts any set to a bitmap covering extent (which must contain
// the set).
func ToBitmap(s Set, extent Range) *Bitmap {
	start := extent.Start &^ 63
	bm := NewBitmap(start, extent.End-start)
	it := s.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			return bm
		}
		bm.SetRange(r)
	}
}

// ToList converts any set to an explicit position list.
func ToList(s Set) List {
	if l, ok := s.(List); ok {
		return l
	}
	return List(Slice(s))
}

// ToRanges converts any set to its run decomposition.
func ToRanges(s Set) Ranges {
	if r, ok := s.(Ranges); ok {
		return r
	}
	var out Ranges
	it := s.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Equal reports whether two sets contain exactly the same positions.
func Equal(a, b Set) bool {
	if a.Count() != b.Count() {
		return false
	}
	ai, bi := a.Runs(), b.Runs()
	for {
		ar, aok := ai.Next()
		br, bok := bi.Next()
		if aok != bok {
			return false
		}
		if !aok {
			return true
		}
		if ar != br {
			return false
		}
	}
}
