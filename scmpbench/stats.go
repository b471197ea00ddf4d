package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (numpy's default rule). xs is
// not modified. An empty sample yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond is the number of samples of an n-sample set ranked strictly
// above the q-quantile: the tail count that tells whether a percentile
// is backed by data (the report prints it next to p99).
func beyond(n int, q float64) int {
	if n <= 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}
