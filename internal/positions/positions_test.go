package positions

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestRangeBasics(t *testing.T) {
	r := Range{10, 20}
	if got := r.Len(); got != 10 {
		t.Errorf("Len = %d, want 10", got)
	}
	if r.Empty() {
		t.Error("non-empty range reported empty")
	}
	if !r.Contains(10) || r.Contains(20) || r.Contains(9) {
		t.Error("Contains wrong at boundaries")
	}
	if (Range{5, 5}).Len() != 0 || !(Range{7, 3}).Empty() {
		t.Error("degenerate ranges mishandled")
	}
	if got := (Range{0, 10}).Intersect(Range{5, 15}); got != (Range{5, 10}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := (Range{0, 10}).Intersect(Range{20, 30}); !got.Empty() {
		t.Errorf("disjoint Intersect = %v, want empty", got)
	}
	if got := (Range{0, 5}).Union(Range{10, 20}); got != (Range{0, 20}) {
		t.Errorf("Union = %v", got)
	}
	if got := (Range{}).Union(Range{3, 4}); got != (Range{3, 4}) {
		t.Errorf("Union with empty = %v", got)
	}
}

func TestEmptySet(t *testing.T) {
	var e Empty
	if e.Count() != 0 || e.Contains(0) || e.Kind() != KindEmpty {
		t.Error("Empty set misbehaves")
	}
	if _, ok := e.Runs().Next(); ok {
		t.Error("Empty runs iterator yielded a run")
	}
}

func TestNewRangesCoalesce(t *testing.T) {
	rs := NewRanges(Range{5, 10}, Range{0, 3}, Range{3, 5}, Range{20, 20}, Range{8, 12})
	want := Ranges{{0, 12}}
	if !reflect.DeepEqual(rs, want) {
		t.Errorf("NewRanges = %v, want %v", rs, want)
	}
	if rs.Count() != 12 {
		t.Errorf("Count = %d, want 12", rs.Count())
	}
}

func TestRangesContains(t *testing.T) {
	rs := NewRanges(Range{0, 5}, Range{10, 15})
	for _, tc := range []struct {
		pos  int64
		want bool
	}{{0, true}, {4, true}, {5, false}, {9, false}, {10, true}, {14, true}, {15, false}, {-1, false}} {
		if got := rs.Contains(tc.pos); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.pos, got, tc.want)
		}
	}
	if got := rs.Covering(); got != (Range{0, 15}) {
		t.Errorf("Covering = %v", got)
	}
}

func TestListBasics(t *testing.T) {
	l := NewList(5, 3, 3, 9, 1)
	want := List{1, 3, 5, 9}
	if !reflect.DeepEqual(l, want) {
		t.Errorf("NewList = %v, want %v", l, want)
	}
	if !l.Contains(5) || l.Contains(4) {
		t.Error("List.Contains wrong")
	}
	if l.Covering() != (Range{1, 10}) {
		t.Errorf("Covering = %v", l.Covering())
	}
}

func TestListRunsCoalesce(t *testing.T) {
	l := List{1, 2, 3, 7, 9, 10}
	it := l.Runs()
	var got []Range
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	want := []Range{{1, 4}, {7, 8}, {9, 11}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("runs = %v, want %v", got, want)
	}
}

func TestBitmapSetAndRuns(t *testing.T) {
	b := NewBitmap(64, 200)
	b.Set(64)
	b.Set(65)
	b.SetRange(Range{100, 140})
	b.Set(263)
	if !b.Contains(64) || !b.Contains(139) || b.Contains(140) || b.Contains(66) {
		t.Error("bitmap membership wrong")
	}
	if got := b.Count(); got != 43 {
		t.Errorf("Count = %d, want 43", got)
	}
	var got []Range
	it := b.Runs()
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	want := []Range{{64, 66}, {100, 140}, {263, 264}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("runs = %v, want %v", got, want)
	}
}

func TestBitmapSetRangeWordSpanning(t *testing.T) {
	b := NewBitmap(0, 256)
	b.SetRange(Range{60, 200})
	if got := b.Count(); got != 140 {
		t.Errorf("Count = %d, want 140", got)
	}
	for p := int64(0); p < 256; p++ {
		want := p >= 60 && p < 200
		if b.Contains(p) != want {
			t.Fatalf("Contains(%d) = %v, want %v", p, b.Contains(p), want)
		}
	}
}

func TestBitmapOrAnd(t *testing.T) {
	a := NewBitmap(0, 128)
	a.SetRange(Range{0, 64})
	b := NewBitmap(0, 128)
	b.SetRange(Range{32, 96})
	c := a.Clone()
	c.Or(b)
	if c.Count() != 96 {
		t.Errorf("Or count = %d, want 96", c.Count())
	}
	a.AndWith(b)
	if a.Count() != 32 {
		t.Errorf("And count = %d, want 32", a.Count())
	}
	if !a.Contains(32) || !a.Contains(63) || a.Contains(64) || a.Contains(31) {
		t.Error("And bits wrong")
	}
}

func TestBitmapAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unaligned bitmap start")
		}
	}()
	NewBitmap(3, 10)
}

func TestAndRangesRanges(t *testing.T) {
	a := NewRanges(Range{0, 10}, Range{20, 30})
	b := NewRanges(Range{5, 25})
	got := And(a, b)
	if got.Kind() != KindRanges {
		t.Fatalf("kind = %v, want ranges (paper AND case 1)", got.Kind())
	}
	want := Ranges{{5, 10}, {20, 25}}
	if !reflect.DeepEqual(ToRanges(got), want) {
		t.Errorf("And = %v, want %v", got, want)
	}
}

func TestAndBitmapBitmapAligned(t *testing.T) {
	a := NewBitmap(0, 256)
	a.SetRange(Range{0, 100})
	b := NewBitmap(0, 256)
	b.SetRange(Range{50, 150})
	got := And(a, b)
	if got.Kind() != KindBitmap {
		t.Fatalf("kind = %v, want bitmap (paper AND case 2)", got.Kind())
	}
	if !Equal(got, NewRanges(Range{50, 100})) {
		t.Errorf("And = %v", Slice(got))
	}
}

func TestAndBitmapBitmapMisaligned(t *testing.T) {
	a := NewBitmap(0, 512)
	a.SetRange(Range{10, 500})
	b := NewBitmap(128, 512)
	b.SetRange(Range{130, 600})
	got := And(a, b)
	if !Equal(got, NewRanges(Range{130, 500})) {
		t.Errorf("And = %v", Slice(got))
	}
}

func TestAndRangeBitmap(t *testing.T) {
	rs := NewRanges(Range{10, 80}, Range{100, 120})
	bm := NewBitmap(0, 192)
	for p := int64(0); p < 192; p += 2 {
		bm.Set(p)
	}
	got := And(rs, bm)
	if got.Kind() != KindBitmap {
		t.Fatalf("kind = %v, want bitmap (paper AND case 3)", got.Kind())
	}
	for p := int64(0); p < 192; p++ {
		want := p%2 == 0 && (p >= 10 && p < 80 || p >= 100 && p < 120)
		if got.Contains(p) != want {
			t.Fatalf("Contains(%d) = %v, want %v", p, got.Contains(p), want)
		}
	}
}

func TestAndLists(t *testing.T) {
	got := And(List{1, 3, 5, 7}, List{3, 4, 5, 9})
	if !reflect.DeepEqual(ToList(got), List{3, 5}) {
		t.Errorf("And = %v", got)
	}
}

func TestAndMixedListRanges(t *testing.T) {
	got := And(NewRanges(Range{0, 5}), List{2, 4, 8})
	if !reflect.DeepEqual(ToList(got), List{2, 4}) {
		t.Errorf("And = %v", got)
	}
	got = And(List{2, 4, 8}, NewRanges(Range{0, 5}))
	if !reflect.DeepEqual(ToList(got), List{2, 4}) {
		t.Errorf("And (swapped) = %v", got)
	}
}

func TestAndEmptyOperands(t *testing.T) {
	if And(Empty{}, NewRanges(Range{0, 5})).Kind() != KindEmpty {
		t.Error("And with empty not empty")
	}
	if And(NewRanges(Range{0, 5}), NewRanges(Range{10, 20})).Kind() != KindEmpty {
		t.Error("And of disjoint ranges not empty")
	}
}

func TestAndAllThreeWay(t *testing.T) {
	a := NewRanges(Range{0, 100})
	b := ToBitmap(NewRanges(Range{50, 150}), Range{0, 192})
	c := List{40, 60, 70, 160}
	got := AndAll(a, b, c)
	if !reflect.DeepEqual(ToList(got), List{60, 70}) {
		t.Errorf("AndAll = %v", Slice(got))
	}
}

func TestAndAllEdge(t *testing.T) {
	if AndAll().Kind() != KindEmpty {
		t.Error("AndAll() not empty")
	}
	s := NewRanges(Range{1, 4})
	if !Equal(AndAll(s), s) {
		t.Error("AndAll single operand changed set")
	}
	if AndAll(s, Empty{}).Kind() != KindEmpty {
		t.Error("AndAll with empty operand not empty")
	}
}

func TestBuilderRepresentationChoice(t *testing.T) {
	// Long runs -> ranges.
	b := NewBuilder(Range{0, 1024})
	b.AddRange(Range{0, 100})
	b.AddRange(Range{200, 300})
	if got := b.Build(); got.Kind() != KindRanges {
		t.Errorf("long runs -> %v, want ranges", got.Kind())
	}
	// Sparse singletons -> list.
	b = NewBuilder(Range{0, 1024})
	for p := int64(0); p < 40; p += 7 {
		b.Add(p)
	}
	if got := b.Build(); got.Kind() != KindList {
		t.Errorf("sparse singletons -> %v, want list", got.Kind())
	}
	// Forced bitmap.
	b = NewBuilder(Range{0, 1024})
	b.ForceBitmap()
	b.AddRange(Range{5, 600})
	got := b.Build()
	if got.Kind() != KindBitmap {
		t.Errorf("forced -> %v, want bitmap", got.Kind())
	}
	if got.Count() != 595 {
		t.Errorf("count = %d, want 595", got.Count())
	}
	// Empty.
	if got := NewBuilder(Range{0, 64}).Build(); got.Kind() != KindEmpty {
		t.Errorf("empty build -> %v", got.Kind())
	}
}

func TestBuilderCoalesces(t *testing.T) {
	b := NewBuilder(Range{0, 128})
	b.Add(3)
	b.Add(4)
	b.AddRange(Range{5, 9})
	b.AddRange(Range{7, 12})
	got := b.Build()
	if !Equal(got, NewRanges(Range{3, 12})) {
		t.Errorf("Build = %v", Slice(got))
	}
	if b.Count() != 9 {
		t.Errorf("Count = %d, want 9", b.Count())
	}
}

func TestConversionsRoundTrip(t *testing.T) {
	orig := NewRanges(Range{3, 9}, Range{64, 130}, Range{200, 201})
	bm := ToBitmap(orig, Range{0, 256})
	if !Equal(orig, bm) {
		t.Error("ranges->bitmap lost positions")
	}
	l := ToList(bm)
	if !Equal(l, orig) {
		t.Error("bitmap->list lost positions")
	}
	rs := ToRanges(l)
	if !reflect.DeepEqual(rs, orig) {
		t.Errorf("list->ranges = %v, want %v", rs, orig)
	}
}

func TestEqual(t *testing.T) {
	a := NewRanges(Range{0, 5})
	b := ToBitmap(a, Range{0, 64})
	if !Equal(a, b) {
		t.Error("equivalent sets reported unequal")
	}
	c := NewRanges(Range{0, 6})
	if Equal(a, c) {
		t.Error("different sets reported equal")
	}
	d := NewRanges(Range{0, 2}, Range{3, 6})
	if Equal(c, d) {
		t.Error("same count, different sets reported equal")
	}
}

func TestSlice(t *testing.T) {
	s := NewRanges(Range{2, 4}, Range{9, 10})
	if got := Slice(s); !reflect.DeepEqual(got, []int64{2, 3, 9}) {
		t.Errorf("Slice = %v", got)
	}
}

// randomSet builds a random position set over [0, n) in a random
// representation, returning both the Set and the reference boolean slice.
func randomSet(rng *rand.Rand, n int64) (Set, []bool) {
	ref := make([]bool, n)
	density := rng.Float64()
	for i := range ref {
		ref[i] = rng.Float64() < density
	}
	switch rng.Intn(3) {
	case 0:
		var b Builder
		for i := int64(0); i < n; i++ {
			if ref[i] {
				b.Add(i)
			}
		}
		s := b.Build()
		if rs, ok := s.(Ranges); ok {
			return rs, ref
		}
		return ToRanges(s), ref
	case 1:
		var l List
		for i := int64(0); i < n; i++ {
			if ref[i] {
				l = append(l, i)
			}
		}
		if len(l) == 0 {
			return Empty{}, ref
		}
		return l, ref
	default:
		bm := NewBitmap(0, n)
		for i := int64(0); i < n; i++ {
			if ref[i] {
				bm.Set(i)
			}
		}
		return bm, ref
	}
}

// TestAndPropertyRandom is a property test: And over any representation pair
// must agree with naive boolean intersection.
func TestAndPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 512
	for iter := 0; iter < 300; iter++ {
		a, aref := randomSet(rng, n)
		b, bref := randomSet(rng, n)
		got := And(a, b)
		for i := int64(0); i < n; i++ {
			want := aref[i] && bref[i]
			if got.Contains(i) != want {
				t.Fatalf("iter %d (%v×%v): Contains(%d) = %v, want %v",
					iter, a.Kind(), b.Kind(), i, got.Contains(i), want)
			}
		}
		var wantCount int64
		for i := int64(0); i < n; i++ {
			if aref[i] && bref[i] {
				wantCount++
			}
		}
		if got.Count() != wantCount {
			t.Fatalf("iter %d: Count = %d, want %d", iter, got.Count(), wantCount)
		}
	}
}

// TestRunsPropertyRandom checks that run iteration reproduces membership
// exactly for every representation.
func TestRunsPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 512
	for iter := 0; iter < 200; iter++ {
		s, ref := randomSet(rng, n)
		got := make([]bool, n)
		it := s.Runs()
		last := int64(-1)
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			if r.Start <= last {
				t.Fatalf("runs not strictly ascending/merged: %v after end %d", r, last)
			}
			last = r.End
			for p := r.Start; p < r.End; p++ {
				got[p] = true
			}
		}
		for i := int64(0); i < n; i++ {
			if got[i] != ref[i] {
				t.Fatalf("iter %d (%v): position %d mismatch", iter, s.Kind(), i)
			}
		}
	}
}

func TestAndAllPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 256
	for iter := 0; iter < 100; iter++ {
		k := 2 + rng.Intn(3)
		sets := make([]Set, k)
		refs := make([][]bool, k)
		for i := range sets {
			sets[i], refs[i] = randomSet(rng, n)
		}
		got := AndAll(sets...)
		for p := int64(0); p < n; p++ {
			want := true
			for _, ref := range refs {
				want = want && ref[p]
			}
			if got.Contains(p) != want {
				t.Fatalf("iter %d: position %d mismatch", iter, p)
			}
		}
	}
}

// ToList converts any set to an explicit position list.
func ToList(s Set) List {
	if l, ok := s.(List); ok {
		return l
	}
	return List(Slice(s))
}

// NewList builds a List from arbitrary positions, sorting and deduplicating.
func NewList(pos ...int64) List {
	out := append(List(nil), pos...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			dedup = append(dedup, p)
		}
	}
	return dedup
}

// Union returns the smallest range covering both r and o.
func (r Range) Union(o Range) Range {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	s, e := r.Start, r.End
	if o.Start < s {
		s = o.Start
	}
	if o.End > e {
		e = o.End
	}
	return Range{s, e}
}
