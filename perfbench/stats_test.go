package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p, want float64
	}{
		{1000, 50, 500},
		{1000, 99, 990}, // exactly ten samples above
		{2000, 99, 1980},
		{21, 50, 11},
	} {
		q := percentile(seq(tc.n), tc.p)
		if q.Value != tc.want || q.Pct != tc.p || q.N != tc.n {
			t.Errorf("n=%d p%.0f = %+v, want value %v at p%.0f", tc.n, tc.p, q, tc.want, tc.p)
		}
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	// 999 samples: rank 990 would leave only 9 above, so the report
	// falls back to rank 989 and says which percentile that is.
	q := percentile(seq(999), 99)
	if q.Value != 989 {
		t.Fatalf("value %v, want 989", q.Value)
	}
	if want := 100 * 989.0 / 999; math.Abs(q.Pct-want) > 1e-12 {
		t.Fatalf("pct %v, want %v", q.Pct, want)
	}
	// Ten or fewer samples: nothing can have ten beyond it; the lowest
	// rank is reported rather than an index out of range.
	if q := percentile(seq(5), 99); q.Value != 1 {
		t.Fatalf("tiny sample: %+v", q)
	}
	if q := percentile(nil, 50); !math.IsNaN(q.Value) {
		t.Fatalf("empty sample: %+v", q)
	}
}

func TestMedianOfAFewRepeats(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Fatalf("even median = %v, want the lower middle 2", got)
	}
}

func TestCountWithin(t *testing.T) {
	if got := countWithin([]float64{1, 2, 3, 4}, 2.5); got != 2 {
		t.Fatalf("countWithin = %d, want 2", got)
	}
}

func TestPartQuantilesTakeTheMedianPart(t *testing.T) {
	// Three parts of 1000: the middle part is slow throughout, the last
	// one has a burst in its tail. The median part decides each figure.
	var xs []float64
	for part, base := range []float64{1, 3, 2} {
		for i := 0; i < 1000; i++ {
			x := base
			if part == 2 && i >= 980 {
				x = 50
			}
			xs = append(xs, x/1000)
		}
	}
	p50, p99, least := partQuantiles(xs)
	if p50 != 2 || p99 != 3 {
		t.Fatalf("p50 %v p99 %v, want 2 and 3", p50, p99)
	}
	if least.N != 1000 || least.Pct != 99 {
		t.Fatalf("smallest part %+v", least)
	}
}
