package nn

import (
	"math"
	"math/rand"
	"testing"
)

// kernelValue draws a test operand: mostly normal floats, with exact
// zeros of both signs and values whose products underflow to ±0 mixed in.
func kernelValue(rng *rand.Rand, zeros int) float64 {
	switch k := rng.Intn(12); {
	case k < zeros:
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	case k == 11:
		return rng.NormFloat64() * 1e-200
	default:
		return rng.NormFloat64()
	}
}

// kernelPatterns are the zero densities the kernel tests sweep, in
// twelfths: none, some, most, and every operand zero.
var kernelPatterns = []int{0, 4, 9, 12}

// kernelRows are the batch sizes the kernel tests sweep: every size from
// 1 to 17 (every remainder of the four-wide blocks, below and above one
// block of a typical candidate list) and one with more nonzero rows than
// a gather buffer holds.
func kernelRows() []int {
	rows := []int{2*gatherCap + 3}
	for m := 1; m <= 17; m++ {
		rows = append(rows, m)
	}
	return rows
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s[%d] = %v (%#x), per-sample %v (%#x)", what, i, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

// TestAccumGradMatchesPerSample: the gathered, four-row-blocked
// accumGrad must leave every weight- and bias-gradient bit where the
// per-sample Net.Backprop loop (rows ascending, zero deltas skipped)
// leaves it, accumulating onto nonzero starting gradients.
func TestAccumGradMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, m := range kernelRows() {
		for _, zeros := range kernelPatterns {
			out, in := 1+rng.Intn(40), 1+rng.Intn(40)
			delta, x := NewMatrix(m, out), NewMatrix(m, in)
			for i := range delta.Data {
				delta.Data[i] = kernelValue(rng, zeros)
			}
			for i := range x.Data {
				x.Data[i] = kernelValue(rng, 2)
			}
			dw, db := NewMatrix(out, in), make([]float64, out)
			for i := range dw.Data {
				dw.Data[i] = rng.NormFloat64()
			}
			for i := range db {
				db[i] = rng.NormFloat64()
			}
			wantW, wantB := dw.Clone(), append([]float64(nil), db...)
			for r := 0; r < m; r++ {
				for i := 0; i < out; i++ {
					d := delta.At(r, i)
					if d == 0 {
						continue
					}
					row := wantW.Row(i)
					for j, xj := range x.Row(r) {
						row[j] += float64(d * xj)
					}
					wantB[i] += d
				}
			}
			accumGrad(dw, db, delta, x)
			bitsEqual(t, "dw", dw.Data, wantW.Data)
			bitsEqual(t, "db", db, wantB)
		}
	}
}

// TestMulABMatchesMulVecT: every row of the gathered, four-term-blocked
// mulAB, which skips zero entries of a, must have the bits of MulVecT
// over that row, which adds every term.
func TestMulABMatchesMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, m := range kernelRows() {
		for _, zeros := range kernelPatterns {
			p, n := 1+rng.Intn(2*gatherCap+8), 1+rng.Intn(40)
			if m == 2*gatherCap+3 {
				p = m // more nonzero terms per row than a gather holds
			}
			a, b, dst := NewMatrix(m, p), NewMatrix(p, n), NewMatrix(m, n)
			for i := range a.Data {
				a.Data[i] = kernelValue(rng, zeros)
			}
			for i := range b.Data {
				b.Data[i] = kernelValue(rng, 2)
			}
			for i := range dst.Data {
				dst.Data[i] = math.NaN() // mulAB must overwrite, not accumulate
			}
			mulAB(dst, a, b)
			for r := 0; r < m; r++ {
				bitsEqual(t, "dst row", dst.Row(r), b.MulVecT(a.Row(r)))
			}
		}
	}
}
