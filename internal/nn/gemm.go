package nn

// Blocked batched kernels. The bit-identity contract shared by all of
// them: every output element is produced by a single accumulator that
// consumes its terms in exactly the order the per-sample reference path
// (Matrix.MulVec / Matrix.MulVecT / Net.Backprop) does — ascending
// input index, ascending batch row. Register blocking happens either
// across independent accumulators (different batch rows or different
// output neurons) or by holding one accumulator in a register across
// several consecutive terms of its own reduction; it never reorders a
// reduction, so batched results are bit-identical to the per-sample
// path.
//
// Every product that feeds an addition is written float64(x*y). The
// conversion rounds the product (Go spec, "Floating-point operators"),
// so no architecture may fuse it into the add: the kernels and their
// per-sample references round the same way on every GOARCH, not only on
// amd64, whose backend never fuses.

// gatherCap is the capacity of the kernels' stack gather buffers. A
// reduction with more nonzero terms is consumed in consecutive chunks of
// gatherCap, which keeps its order.
const gatherCap = 32

// mulAB computes dst = a·b (a: m×p, b: p×n) in the row-axpy form of
// MulVecT: for each dst row, terms accumulate over i ascending with the
// products formed as b[i][j]·a[r][i] — the backward delta propagation
// delta·W. dst must not alias a or b.
//
// Rows i with a[r][i] == 0 are skipped, which MulVecT does not do. For
// a finite weight w the skipped term is w·0 = ±0, and x + (±0) == x
// for every x except x = −0. An accumulator that starts at +0 is never
// −0: a round-to-nearest sum is −0 only when both addends are −0 (an
// exact cancellation gives +0, and a nonzero exact sum of two floats
// never rounds to zero). So the skipped terms change no bit. The
// argument needs finite weights: a NaN or infinite w makes w·0 NaN,
// which MulVecT would carry into the sum and mulAB does not.
//
// The nonzero a[r][i] are gathered in ascending i, and each dst element
// stays in a register across four consecutive terms of its sum.
func mulAB(dst, a, b *Matrix) {
	m, p, n := a.Rows, a.Cols, b.Cols
	if b.Rows != p || dst.Rows != m || dst.Cols != n {
		panic("nn: mulAB shape mismatch")
	}
	var idx [gatherCap]int
	var ys [gatherCap]float64
	for r := 0; r < m; r++ {
		arow, drow := a.Row(r)[:p], dst.Row(r)[:n]
		for j := range drow {
			drow[j] = 0
		}
		for i := 0; i < p; {
			k := 0
			for ; i < p && k < gatherCap; i++ {
				if y := arow[i]; y != 0 {
					idx[k], ys[k] = i, y
					k++
				}
			}
			t := 0
			for ; t+4 <= k; t += 4 {
				y0, y1, y2, y3 := ys[t], ys[t+1], ys[t+2], ys[t+3]
				b0 := b.Row(idx[t])[:n]
				b1 := b.Row(idx[t+1])[:n]
				b2 := b.Row(idx[t+2])[:n]
				b3 := b.Row(idx[t+3])[:n]
				for j := range drow {
					s := drow[j]
					s += float64(b0[j] * y0)
					s += float64(b1[j] * y1)
					s += float64(b2[j] * y2)
					s += float64(b3[j] * y3)
					drow[j] = s
				}
			}
			for ; t < k; t++ {
				y, brow := ys[t], b.Row(idx[t])[:n]
				for j, w := range brow {
					drow[j] += float64(w * y)
				}
			}
		}
	}
}

// accumGrad accumulates the batch's weight and bias gradients:
// dw[i][j] += Σ_r delta[r][i]·x[r][j] and db[i] += Σ_r delta[r][i],
// with terms consumed in ascending batch-row order and zero deltas
// skipped — the exact accumulation sequence of the per-sample
// Net.Backprop loop. The nonzero deltas of output i are gathered in
// ascending row order, and each dw element stays in a register across
// four consecutive rows.
func accumGrad(dw *Matrix, db []float64, delta, x *Matrix) {
	m, out, in := delta.Rows, delta.Cols, x.Cols
	if x.Rows != m || dw.Rows != out || dw.Cols != in || len(db) != out {
		panic("nn: accumGrad shape mismatch")
	}
	var rows [gatherCap]int
	var ds [gatherCap]float64
	for i := 0; i < out; i++ {
		dwrow := dw.Row(i)[:in]
		dbv := db[i]
		for r := 0; r < m; {
			k := 0
			for ; r < m && k < gatherCap; r++ {
				if d := delta.Data[r*out+i]; d != 0 {
					rows[k], ds[k] = r, d
					k++
				}
			}
			t := 0
			for ; t+4 <= k; t += 4 {
				d0, d1, d2, d3 := ds[t], ds[t+1], ds[t+2], ds[t+3]
				x0 := x.Row(rows[t])[:in]
				x1 := x.Row(rows[t+1])[:in]
				x2 := x.Row(rows[t+2])[:in]
				x3 := x.Row(rows[t+3])[:in]
				for j := range dwrow {
					s := dwrow[j]
					s += float64(d0 * x0[j])
					s += float64(d1 * x1[j])
					s += float64(d2 * x2[j])
					s += float64(d3 * x3[j])
					dwrow[j] = s
				}
				dbv += d0
				dbv += d1
				dbv += d2
				dbv += d3
			}
			for ; t < k; t++ {
				d, xrow := ds[t], x.Row(rows[t])[:in]
				for j, xv := range xrow {
					dwrow[j] += float64(d * xv)
				}
				dbv += d
			}
		}
		db[i] = dbv
	}
}
