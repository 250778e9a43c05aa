package perf

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the value is a property of a handful of ops, not of the workload.
const minBeyond = 10

// Percentile returns the p-th percentile (0 < p < 1, nearest rank) of the
// samples. Above the median it refuses a percentile that has fewer than ten
// samples beyond it.
func Percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("perf: percentile of no samples")
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("perf: percentile %v is outside (0, 1)", p)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if beyond := n - rank; p > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("perf: p%g of %d samples has %d beyond it, want at least %d",
			p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return nearestRank(s, p), nil
}

// nearestRank is the p-th percentile of sorted, non-empty samples, with no
// check on how many lie beyond it.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[int(math.Ceil(p*float64(len(sorted))))-1]
}

// Median returns the median of the samples (0 for none).
func Median(samples []float64) float64 {
	q := Quartiles(samples)
	return q[1]
}

// Quartiles returns the first quartile, median and third quartile of the
// samples by the exclusive method, the one Python's statistics.quantiles
// (n=4) uses — the acceptance check of this benchmark is stated in those
// terms. Fewer than two samples give that sample (or 0) three times.
func Quartiles(samples []float64) [3]float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
