package main

import (
	"math"
	"sort"
)

// Percentile returns the q-quantile (0 <= q <= 1) of sorted values by
// linear interpolation between the closest ranks; NaN for no values.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// Median is the 0.5-quantile of unsorted values; 0 for no values, so an
// absent layer reads as zero work rather than breaking the report.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, 0.5)
}
