package nn

// mulABT computes dst = a·bᵀ, adds bias to every row when non-nil, and
// applies ReLU when relu is set: the fused forward step of one dense
// layer, with b in the transposed (output-major) weight layout so both
// operands stream row-major. dst must not alias a or b.
//
// The micro-kernel is 4 batch rows × 2 output neurons: eight independent
// accumulator chains hide FP-add latency while every input load is
// shared by two neurons and every weight load by four rows — and with
// only six live base pointers nothing spills to stack. Each of the
// eight sums still accumulates in pure ascending-j order, exactly like
// the per-sample MulVec, so register blocking never reorders a
// reduction.
func mulABT(dst, a, b *Matrix, bias []float64, relu bool) {
	m, n := a.Rows, b.Rows
	if b.Cols != a.Cols || dst.Rows != m || dst.Cols != n {
		panic("nn: mulABT shape mismatch")
	}
	r := 0
	for ; r+4 <= m; r += 4 {
		a0, a1, a2, a3 := a.Row(r), a.Row(r+1), a.Row(r+2), a.Row(r+3)
		d0, d1, d2, d3 := dst.Row(r), dst.Row(r+1), dst.Row(r+2), dst.Row(r+3)
		o := 0
		for ; o+2 <= n; o += 2 {
			b0 := b.Row(o)
			// Reslicing everything to len(b0) lets the compiler drop the
			// bounds check on every indexed load in the inner loop.
			b1 := b.Row(o + 1)[:len(b0)]
			x0, x1, x2, x3 := a0[:len(b0)], a1[:len(b0)], a2[:len(b0)], a3[:len(b0)]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for j, w0 := range b0 {
				w1 := b1[j]
				v0, v1, v2, v3 := x0[j], x1[j], x2[j], x3[j]
				s00 += float64(w0 * v0)
				s01 += float64(w1 * v0)
				s10 += float64(w0 * v1)
				s11 += float64(w1 * v1)
				s20 += float64(w0 * v2)
				s21 += float64(w1 * v2)
				s30 += float64(w0 * v3)
				s31 += float64(w1 * v3)
			}
			if bias != nil {
				b0v, b1v := bias[o], bias[o+1]
				s00 += b0v
				s01 += b1v
				s10 += b0v
				s11 += b1v
				s20 += b0v
				s21 += b1v
				s30 += b0v
				s31 += b1v
			}
			if relu {
				// Branchy form, not max(): max(-0, 0) is +0, which would
				// diverge bitwise from the per-sample `if v < 0` clamp.
				if s00 < 0 {
					s00 = 0
				}
				if s01 < 0 {
					s01 = 0
				}
				if s10 < 0 {
					s10 = 0
				}
				if s11 < 0 {
					s11 = 0
				}
				if s20 < 0 {
					s20 = 0
				}
				if s21 < 0 {
					s21 = 0
				}
				if s30 < 0 {
					s30 = 0
				}
				if s31 < 0 {
					s31 = 0
				}
			}
			d0[o], d0[o+1] = s00, s01
			d1[o], d1[o+1] = s10, s11
			d2[o], d2[o+1] = s20, s21
			d3[o], d3[o+1] = s30, s31
		}
		for ; o < n; o++ {
			brow := b.Row(o)
			x0, x1, x2, x3 := a0[:len(brow)], a1[:len(brow)], a2[:len(brow)], a3[:len(brow)]
			var s0, s1, s2, s3 float64
			for j, w := range brow {
				s0 += float64(w * x0[j])
				s1 += float64(w * x1[j])
				s2 += float64(w * x2[j])
				s3 += float64(w * x3[j])
			}
			if bias != nil {
				bv := bias[o]
				s0 += bv
				s1 += bv
				s2 += bv
				s3 += bv
			}
			if relu {
				if s0 < 0 {
					s0 = 0
				}
				if s1 < 0 {
					s1 = 0
				}
				if s2 < 0 {
					s2 = 0
				}
				if s3 < 0 {
					s3 = 0
				}
			}
			d0[o], d1[o], d2[o], d3[o] = s0, s1, s2, s3
		}
	}
	for ; r < m; r++ {
		arow, drow := a.Row(r), dst.Row(r)
		for o := 0; o < n; o++ {
			brow := b.Row(o)
			x := arow[:len(brow)]
			var s float64
			for j, w := range brow {
				s += float64(w * x[j])
			}
			if bias != nil {
				s += bias[o]
			}
			if relu && s < 0 {
				s = 0
			}
			drow[o] = s
		}
	}
}
