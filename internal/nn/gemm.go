package nn

// Blocked batched kernels. The bit-identity contract shared by all of
// them: every output element is produced by a single accumulator that
// consumes its terms in exactly the order the per-sample reference path
// (Matrix.MulVec / Matrix.MulVecT / Net.Backprop) does — ascending
// input index, ascending batch row. Register blocking happens only
// across independent accumulators (different batch rows or different
// output neurons), never inside one reduction, so batched results are
// bit-identical to the per-sample path.

// mulAB computes dst = a·b (a: m×p, b: p×n) in the row-axpy form of
// MulVecT: for each dst row, terms accumulate over i ascending with the
// products formed as b[i][j]·a[r][i] — the backward delta propagation
// delta·W. dst must not alias a or b.
func mulAB(dst, a, b *Matrix) {
	m, p, n := a.Rows, a.Cols, b.Cols
	if b.Rows != p || dst.Rows != m || dst.Cols != n {
		panic("nn: mulAB shape mismatch")
	}
	for r := 0; r < m; r++ {
		arow, drow := a.Row(r), dst.Row(r)
		for j := range drow {
			drow[j] = 0
		}
		for i := 0; i < p; i++ {
			yi := arow[i]
			brow := b.Row(i)
			dr := drow[:len(brow)]
			for j, w := range brow {
				dr[j] += w * yi
			}
		}
	}
}

// accumGrad accumulates the batch's weight and bias gradients:
// dw[i][j] += Σ_r delta[r][i]·x[r][j] and db[i] += Σ_r delta[r][i],
// with terms consumed in ascending batch-row order and zero deltas
// skipped — the exact accumulation sequence of the per-sample
// Net.Backprop loop.
func accumGrad(dw *Matrix, db []float64, delta, x *Matrix) {
	m, out, in := delta.Rows, delta.Cols, x.Cols
	if x.Rows != m || dw.Rows != out || dw.Cols != in || len(db) != out {
		panic("nn: accumGrad shape mismatch")
	}
	for i := 0; i < out; i++ {
		dwrow := dw.Row(i)
		dbv := db[i]
		for r := 0; r < m; r++ {
			d := delta.Data[r*out+i]
			if d == 0 {
				continue
			}
			xrow := x.Row(r)
			dwr := dwrow[:len(xrow)]
			for j, xv := range xrow {
				dwr[j] += d * xv
			}
			dbv += d
		}
		db[i] = dbv
	}
}
