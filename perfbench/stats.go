package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile's rank
// before the percentile is reported: with fewer, one outlier decides it.
const minBeyond = 10

// nearestRank returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// the value at 1-based rank ceil(q·n) of the sorted samples, together
// with how many samples lie beyond that rank. xs is sorted in place.
// A failed sample is +Inf, so it sorts past every latency.
func nearestRank(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1], len(xs) - rank
}

// tailPercentile is nearestRank for a tail percentile: ok is false when
// fewer than minBeyond samples lie beyond the rank, or when the value
// is a failure (+Inf), so the caller refuses to report it.
func tailPercentile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	v, beyond = nearestRank(xs, q)
	return v, beyond, beyond >= minBeyond && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// median returns the middle value of xs (the mean of the two middle
// values for even n) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
