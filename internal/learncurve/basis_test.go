package learncurve

import (
	"math"
	"sync"
	"testing"
)

// basisWant is the historical per-observation basis expression.
func basisWant(r float64, i int) float64 { return 1 - math.Exp(-r*float64(i)) }

// TestBasisTableMatchesExp: for every grid rate and every iteration up
// to twice the row's cap — the table's entries, and past the cap the
// saturated 1 — basisAt has the bits of 1 − math.Exp(−r·i).
func TestBasisTableMatchesExp(t *testing.T) {
	var c basisCache
	tab := c.covering(2 * basisMaxCap)
	for ri, r := range fitRates {
		row := tab.rows[ri]
		if len(row) != basisCaps[ri] {
			t.Fatalf("rate %v: row of %d values, want the cap %d", r, len(row), basisCaps[ri])
		}
		for i := 0; i <= 2*basisCaps[ri]; i++ {
			if got, want := basisAt(row, r, i), basisWant(r, i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rate %v iteration %d: table %v, math.Exp %v", r, i, got, want)
			}
		}
	}
}

// TestBasisNegativeIteration: a negative iteration is outside every
// row and takes the direct computation.
func TestBasisNegativeIteration(t *testing.T) {
	var c basisCache
	tab := c.covering(-7)
	for ri, r := range fitRates {
		for _, i := range []int{-1, -7, -1000, math.MinInt32} {
			if got, want := basisAt(tab.rows[ri], r, i), basisWant(r, i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rate %v iteration %d: %v, want %v", r, i, got, want)
			}
		}
	}
}

// TestBasisConcurrentGrowth grows one cache from two goroutines at once,
// each reading back values from the tables it is handed. Under -race
// this checks that publishing grown tables is race-free; either way,
// every table must hold the exact values for what it covers.
func TestBasisConcurrentGrowth(t *testing.T) {
	var c basisCache
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 12; k++ {
				maxIter := (1000 + 997*g) << k
				tab := c.covering(maxIter)
				for ri, r := range fitRates {
					for _, i := range []int{0, 1, maxIter / 3, maxIter} {
						if got, want := basisAt(tab.rows[ri], r, i), basisWant(r, i); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("goroutine %d rate %v iteration %d: %v, want %v", g, r, i, got, want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBasisGrowthKeepsFullRows: growing reuses rows that already
// reached their cap and never shrinks a table's span.
func TestBasisGrowthKeepsFullRows(t *testing.T) {
	var c basisCache
	small := c.covering(10)
	if small.span != minBasisSpan {
		t.Fatalf("first span %d, want %d", small.span, minBasisSpan)
	}
	if again := c.covering(minBasisSpan - 1); again != small {
		t.Fatal("a covered request grew the table")
	}
	big := c.covering(minBasisSpan)
	if big.span <= small.span {
		t.Fatalf("span %d after growth, was %d", big.span, small.span)
	}
	last := len(fitRates) - 1 // the fastest rate: its row is full from the start
	if len(small.rows[last]) != basisCaps[last] || &big.rows[last][0] != &small.rows[last][0] {
		t.Fatal("a full row was copied on growth")
	}
}
