package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a percentile for it
// to be reported: fewer, and the value is a handful of outliers.
const minTailSamples = 10

// tailLadder lists the tail percentiles a run may report, lowest first,
// in per mille so that the sample arithmetic is exact.
var tailLadder = []int{900, 950, 990, 999}

// tailQuantile returns the highest percentile of the ladder that has at
// least minTailSamples of n samples beyond it, or 0 when n supports none.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, perMille := range tailLadder {
		if n*(1000-perMille)/1000 >= minTailSamples {
			best = float64(perMille) / 1000
		}
	}
	return best
}

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// values, NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median sorts a copy of vs and returns its middle value (the mean of the
// two middle values for an even count), NaN when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// nsToSortedMs converts nanosecond samples to sorted milliseconds.
func nsToSortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
