package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile; with fewer, the percentile is a single outlier, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs, 0 < p < 1. It
// fails when fewer than minBeyond samples lie above the returned rank, so
// a run too short for its tail says so instead of printing noise.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p%g of %d samples", 100*p, n)
	}
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			100*p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
