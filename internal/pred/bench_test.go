package pred

import (
	"math/rand"
	"slices"
	"testing"
)

// BenchmarkKernel times each operator's compiled kernel over 64 Ki values in
// random order and sorted: lt, ge and between accept about half of them, eq
// and ne split off one value of about a million, and all reads none.
func BenchmarkKernel(b *testing.B) {
	const n = 64 << 10
	rng := rand.New(rand.NewSource(1))
	random := make([]int64, n)
	for i := range random {
		random[i] = rng.Int63n(1 << 20)
	}
	sorted := slices.Sorted(slices.Values(random))
	const mid = 1 << 19
	out := make([]uint64, n/64)
	for _, tc := range []struct {
		name string
		p    Predicate
	}{
		{"lt", LessThan(mid)},
		{"ge", AtLeast(mid)},
		{"eq", Equals(random[0])},
		{"between", InRange(mid/2, mid+mid/2)},
		{"ne", NotEquals(random[0])},
		{"all", MatchAll},
	} {
		for _, data := range []struct {
			name string
			vals []int64
		}{{"random", random}, {"sorted", sorted}} {
			b.Run(tc.name+"/"+data.name, func(b *testing.B) {
				k := Compile(tc.p)
				for i := 0; i < b.N; i++ {
					k(data.vals, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
			})
		}
	}
}
