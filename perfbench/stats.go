package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A p99 over fewer than 1000 samples would rest on fewer than ten
// observations, so the benchmark reports the highest percentile that
// still has ten beyond it and says so in the header.
const minBeyond = 10

// quantile is one reported percentile of a sample.
type quantile struct {
	Value float64 // in the sample's unit
	// Pct is the percentile actually reported: the one asked for, or a
	// lower one when the sample is too small for the ten-beyond rule.
	Pct float64
	N   int // sample count
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100).
// When fewer than minBeyond samples lie above that rank it falls back to
// rank n-minBeyond, the highest rank that keeps ten samples beyond it,
// and reports the percentile that rank corresponds to. An empty sample
// yields NaN. xs is sorted in place.
func percentile(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Value: math.NaN(), Pct: p}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		rank = n - minBeyond
		if rank < 1 {
			rank = 1
		}
		p = 100 * float64(rank) / float64(n)
	}
	return quantile{Value: xs[rank-1], Pct: p, N: n}
}

// median is the nearest-rank median of xs (sorted in place): the middle
// value, the lower middle one for an even count. It is a summary of a
// handful of repeats, so the ten-beyond rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[(len(xs)-1)/2]
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// countWithin counts samples no larger than limit.
func countWithin(xs []float64, limit float64) int {
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return n
}

// partQuantiles splits xs (a latency sample in the order it was taken,
// seconds) into latencyParts consecutive equal parts, takes each part's
// p50 and p99, and returns the medians over parts in milliseconds with
// the smallest part's p99 as a note. A burst of CPU steal on a shared
// host stalls everything queued behind it; with the median over parts
// it moves a figure only when it spans most of the run.
func partQuantiles(xs []float64) (p50ms, p99ms float64, least quantile) {
	var p50s, p99s []float64
	for i := 0; i < latencyParts; i++ {
		part := append([]float64(nil), xs[i*len(xs)/latencyParts:(i+1)*len(xs)/latencyParts]...)
		p50, p99 := percentile(part, 50), percentile(part, 99)
		p50s, p99s = append(p50s, p50.Value), append(p99s, p99.Value)
		if i == 0 || p99.N < least.N {
			least = p99
		}
	}
	return median(p50s) * 1000, median(p99s) * 1000, least
}
