package positions

import "testing"

// TestBuilderBuildHeuristics pins Build's representation choice at the
// documented thresholds: empty → Empty; forced → bitmap; avg run length ≥ 4
// OR ≤ 4 runs → Ranges; all-singleton and ≤ 1024 positions → List;
// otherwise bitmap. Each case states which rule it sits on (and, for the
// boundary cases, which side).
func TestBuilderBuildHeuristics(t *testing.T) {
	const extent = 1 << 16
	// addRuns(b, n, len, stride) adds n runs of the given length, spaced
	// stride apart starting at 0.
	addRuns := func(b *Builder, n, length, stride int64) {
		for i := int64(0); i < n; i++ {
			b.AddRange(Range{i * stride, i*stride + length})
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(b *Builder)
		want  Kind
		count int64
	}{
		{
			name:  "empty",
			setup: func(b *Builder) {},
			want:  KindEmpty,
		},
		{
			name:  "empty-forced-still-empty",
			setup: func(b *Builder) { b.ForceBitmap() },
			want:  KindEmpty,
		},
		{
			name:  "forced-bitmap-overrides-range-shape",
			setup: func(b *Builder) { b.ForceBitmap(); addRuns(b, 2, 1000, 2000) },
			want:  KindBitmap,
			count: 2000,
		},
		{
			name:  "avg-run-exactly-4-ranges", // count == 4·runs sits on the ≥ side
			setup: func(b *Builder) { addRuns(b, 100, 4, 8) },
			want:  KindRanges,
			count: 400,
		},
		{
			name:  "avg-run-just-under-4-many-runs-bitmap", // 100 runs of 3: count < 4·runs, not singletons
			setup: func(b *Builder) { addRuns(b, 100, 3, 8) },
			want:  KindBitmap,
			count: 300,
		},
		{
			name:  "four-short-runs-ranges", // ≤ 4 runs wins even with avg run length 1
			setup: func(b *Builder) { addRuns(b, 4, 1, 10) },
			want:  KindRanges,
			count: 4,
		},
		{
			name:  "five-singletons-list", // > 4 runs, all singletons, sparse → List
			setup: func(b *Builder) { addRuns(b, 5, 1, 10) },
			want:  KindList,
			count: 5,
		},
		{
			name:  "singletons-at-list-cutoff", // exactly 1024 singletons stay a List
			setup: func(b *Builder) { addRuns(b, 1024, 1, 11) },
			want:  KindList,
			count: 1024,
		},
		{
			name:  "singletons-past-list-cutoff-bitmap", // 1025 singletons overflow to bitmap
			setup: func(b *Builder) { addRuns(b, 1025, 1, 11) },
			want:  KindBitmap,
			count: 1025,
		},
		{
			name:  "one-long-run-ranges",
			setup: func(b *Builder) { b.AddRange(Range{100, 60000}) },
			want:  KindRanges,
			count: 59900,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(Range{0, extent})
			tc.setup(b)
			got := b.Build()
			if got.Kind() != tc.want {
				t.Fatalf("Build() kind = %v, want %v", got.Kind(), tc.want)
			}
			if got.Count() != tc.count {
				t.Fatalf("Build() count = %d, want %d", got.Count(), tc.count)
			}
			if b.Count() != tc.count {
				t.Fatalf("Builder.Count() = %d, want %d", b.Count(), tc.count)
			}
			if tc.want == KindBitmap {
				// Bitmap output covers the builder's extent (64-aligned start).
				if cov := got.Covering(); cov != (Range{0, extent}) {
					t.Fatalf("bitmap covering = %v, want [0,%d)", cov, extent)
				}
			}
		})
	}
}

// TestBuilderBitmapExtentFallback: a builder with no fixed extent derives
// its forced-bitmap cover from the added runs, 64-aligning the start.
func TestBuilderBitmapExtentFallback(t *testing.T) {
	var b Builder
	b.ForceBitmap()
	b.AddRange(Range{70, 80})
	b.AddRange(Range{200, 300})
	got := b.Build()
	if got.Kind() != KindBitmap {
		t.Fatalf("kind = %v", got.Kind())
	}
	bm := got.(*Bitmap)
	if bm.Start() != 64 || bm.Covering().End != 300 {
		t.Fatalf("bitmap spans [%d,%d), want [64,300)", bm.Start(), bm.Covering().End)
	}
	if !Equal(got, NewRanges(Range{70, 80}, Range{200, 300})) {
		t.Fatal("bitmap contents differ from added runs")
	}
}

// Count returns the number of positions added so far.
func (b *Builder) Count() int64 { return b.count }
