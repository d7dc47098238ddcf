package learncurve

import (
	"math"
	"sync"
	"sync/atomic"
)

// The fit's basis F = 1 − e^(−r·i) depends only on the grid rate r and
// the integer iteration i, so one table serves every predictor of every
// simulation: row ri holds 1 − e^(−fitRates[ri]·i), computed with the
// historical expression, for i = 0, 1, … . A seed-1 paper simulation
// folds about 165k observations over only about 1,150 distinct
// iteration values; the table turns 45 math.Exp calls per observation
// into 45 loads.
//
// Row ri stops at basisCaps[ri] = ceil(40/r): from there on the value
// is exactly 1. For i ≥ ceil(40/r), fl(r·i) ≥ fl(r·ceil(40/r)) ≥ 39 by
// monotone rounding, and e^-39 < 1.2e-17; math.Exp is within one ulp of
// it (and returns 0 past 745), so the subtrahend y satisfies
// 0 ≤ y < 2^-54, less than half the gap 2^-53 below 1, and 1 − y rounds
// to exactly 1. A negative iteration (outside the fit's domain, but not
// rejected by Observe) is computed directly.
//
// The table is shared process-wide (sharedBasis), including by the
// simulations mlfs.Compare runs in parallel. It is copy-on-grow: a grown
// table is a new value published through an atomic pointer, and a
// published table is never written again, so readers need only the
// atomic load. Every value is a pure function of (rate, iteration), so
// which simulation grew the table first cannot change a bit of any
// result.
type basisTable struct {
	span int         // each row covers iterations [0, min(span, its cap))
	rows [][]float64 // rows[ri][i] = 1 − e^(−fitRates[ri]·i)
}

// basisCache publishes the latest basisTable.
type basisCache struct {
	cur atomic.Pointer[basisTable] // the latest table; nil until first use
	mu  sync.Mutex                 // serialises growth
}

// sharedBasis is the one table every predictor reads.
var sharedBasis basisCache

// basisCaps[ri] is the length of row ri: ceil(40/fitRates[ri]).
// basisMaxCap is the largest; a table with span > basisMaxCap holds
// every row in full.
var basisCaps, basisMaxCap = func() ([]int, int) {
	caps, most := make([]int, len(fitRates)), 0
	for ri, r := range fitRates {
		caps[ri] = int(math.Ceil(40 / r))
		most = max(most, caps[ri])
	}
	return caps, most
}()

// minBasisSpan is the span of the first table: it covers the iteration
// counts of a typical simulated job without growing.
const minBasisSpan = 2048

// covering returns a table that covers every iteration ≤ maxIter: for
// 0 ≤ i ≤ maxIter, basisAt(t.rows[ri], fitRates[ri], i) is
// 1 − e^(−fitRates[ri]·i).
func (c *basisCache) covering(maxIter int) *basisTable {
	need := min(maxIter, basisMaxCap)
	if t := c.cur.Load(); t != nil && need < t.span {
		return t
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.cur.Load()
	if old != nil && need < old.span {
		return old // another goroutine grew it meanwhile
	}
	span := minBasisSpan
	if old != nil {
		span = 2 * old.span
	}
	for span <= need {
		span *= 2
	}
	t := &basisTable{span: span, rows: make([][]float64, len(fitRates))}
	for ri, r := range fitRates {
		var prev []float64
		if old != nil {
			prev = old.rows[ri]
		}
		n := min(span, basisCaps[ri])
		if len(prev) == n {
			t.rows[ri] = prev // already full; rows are never written once published
			continue
		}
		row := make([]float64, n)
		copy(row, prev)
		for i := len(prev); i < n; i++ {
			row[i] = 1 - math.Exp(-r*float64(i))
		}
		t.rows[ri] = row
	}
	c.cur.Store(t)
	return t
}

// basisAt returns 1 − e^(−r·i) for the grid rate r whose row (from a
// table covering some maxIter ≥ i) is row. It is small
// enough to inline, so the fit's loops pay a compare and a load per
// term, not a call.
func basisAt(row []float64, r float64, i int) float64 {
	if uint(i) < uint(len(row)) {
		return row[i]
	}
	return basisPastRow(r, i)
}

// basisPastRow is basisAt past the end of the row: a non-negative i is
// at or beyond the row's cap, where the value is exactly 1. It stays
// out of line so that basisAt fits the inliner's budget.
//
//go:noinline
func basisPastRow(r float64, i int) float64 {
	if i >= 0 {
		return 1
	}
	return 1 - math.Exp(-r*float64(i))
}
