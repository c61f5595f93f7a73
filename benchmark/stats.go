package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of sorted values by the exclusive
// method, the default of Python's statistics.quantiles: position
// q·(n+1), interpolated linearly and clamped to the sample range.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := q * float64(n+1)
	if h <= 1 {
		return sorted[0]
	}
	if h >= float64(n) {
		return sorted[n-1]
	}
	j := int(h)
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

// median returns the median of values, which it does not modify.
func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}
