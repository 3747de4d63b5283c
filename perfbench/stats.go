package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample such that at least p% of the samples are at
// or below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the nearest-rank p-th percentile
// among n samples: ceil(p/100 × n), clamped to [1, n].
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above the nearest-rank p-th
// percentile, i.e. the samples a percentile estimate rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// minBeyondP99 is how many samples must lie beyond p99 for the run to
// report p99 at all.
const minBeyondP99 = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count).
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
