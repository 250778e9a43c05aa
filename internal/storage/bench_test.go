package storage

import (
	"path/filepath"
	"testing"

	"matstore/internal/buffer"
	"matstore/internal/encoding"
	"matstore/internal/positions"
)

// BenchmarkGather compares the batched block-pinned gather against the
// retained per-position ValueAt path on a warm buffer pool: same positions,
// same values out. The batched path's allocations are O(blocks touched) —
// one loader closure per pinned block plus the output slice — where the
// per-position path allocates a loader closure per position (PR 2's
// acceptance target).
func BenchmarkGather(b *testing.B) {
	const n = 40 * encoding.PlainBlockCap // 40 blocks
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 977)
	}
	dir := b.TempDir()
	for _, enc := range []encoding.Kind{encoding.Plain, encoding.RLE} {
		path := filepath.Join(dir, enc.String()+".col")
		w, err := NewColumnWriter(path, enc)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range vals {
			if err := w.Append(v); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		c, err := Open(path, buffer.New(0))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()

		// Scattered short runs: ~12.5% of positions, touching every block.
		var ps positions.Ranges
		for p := int64(0); p+8 < n; p += 64 {
			ps = append(ps, positions.Range{Start: p, End: p + 8})
		}
		count := ps.Count()
		if _, err := c.GatherAt(ps, nil); err != nil { // warm the pool
			b.Fatal(err)
		}

		b.Run(enc.String()+"/batched", func(b *testing.B) {
			var dst []int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = c.GatherAt(ps, dst[:0])
				if err != nil {
					b.Fatal(err)
				}
				if int64(len(dst)) != count {
					b.Fatal("short gather")
				}
			}
		})
		b.Run(enc.String()+"/per-position", func(b *testing.B) {
			dst := make([]int64, 0, count)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = dst[:0]
				for _, r := range ps {
					for p := r.Start; p < r.End; p++ {
						v, err := c.ValueAt(p)
						if err != nil {
							b.Fatal(err)
						}
						dst = append(dst, v)
					}
				}
				if int64(len(dst)) != count {
					b.Fatal("short gather")
				}
			}
		})
	}
}

// BenchmarkGatherAtPlain is the executor's DS3 without a retained mini-column:
// one default-width chunk's descriptor — the bit-string of a predicate over
// unsorted data at 50 % (runs two positions long), or the ascending list an
// EM-pipelined batch carries — gathered from the nine plain blocks under it
// into a destination sized beforehand. What it allocates is the pool's loader
// closure, one per block pinned.
func BenchmarkGatherAtPlain(b *testing.B) {
	const n = 13 * encoding.PlainBlockCap
	path := filepath.Join(b.TempDir(), "plain.col")
	w, err := NewColumnWriter(path, encoding.Plain)
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := w.Append(i % 977); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	c, err := Open(path, buffer.New(0))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const chunk = 1 << 16
	bm := positions.NewBitmap(chunk/2, chunk) // a chunk that starts mid-block
	var list positions.List
	s := uint64(1)
	for p := bm.Start(); p < bm.Start()+chunk; p++ {
		if s = s*6364136223846793005 + 1442695040888963407; s>>63 == 1 {
			bm.Set(p)
		}
		if p%3 == 0 {
			list = append(list, p)
		}
	}
	for _, d := range []struct {
		name string
		ps   positions.Set
	}{{"bitmap50", bm}, {"list", list}} {
		b.Run(d.name, func(b *testing.B) {
			dst := make([]int64, 0, d.ps.Count())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = c.GatherAt(d.ps, dst[:0]); err != nil {
					b.Fatal(err)
				}
			}
			if int64(len(dst)) != d.ps.Count() {
				b.Fatal("short gather")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/pos")
		})
	}
}

// BenchmarkGatherUnordered measures the join deferred-fetch shape: shuffled,
// repeated positions against the per-position jumps they replace.
func BenchmarkGatherUnordered(b *testing.B) {
	const n = 10 * encoding.PlainBlockCap
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 977)
	}
	path := filepath.Join(b.TempDir(), "plain.col")
	w, err := NewColumnWriter(path, encoding.Plain)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	c, err := Open(path, buffer.New(0))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	ps := make([]int64, 1<<14)
	s := uint64(1)
	for i := range ps {
		s = s*6364136223846793005 + 1442695040888963407
		ps[i] = int64(s % n)
	}
	if _, err := c.GatherUnordered(ps, nil); err != nil { // warm the pool
		b.Fatal(err)
	}

	b.Run("batched", func(b *testing.B) {
		var dst []int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = c.GatherUnordered(ps, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-position", func(b *testing.B) {
		dst := make([]int64, 0, len(ps))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for _, p := range ps {
				v, err := c.ValueAt(p)
				if err != nil {
					b.Fatal(err)
				}
				dst = append(dst, v)
			}
		}
	})
}
