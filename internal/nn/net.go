package nn

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"mlfs/internal/snapshot"
)

// Net is a fully connected MLP with ReLU hidden activations and a linear
// output layer (callers apply Softmax when they need probabilities).
type Net struct {
	sizes []int
	W     []*Matrix // W[l]: sizes[l+1] x sizes[l]
	B     [][]float64
}

// NewNet builds an MLP with the given layer sizes (at least input and
// output) and Xavier-initialised weights, deterministic under seed.
func NewNet(sizes []int, seed int64) *Net {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	rng := rand.New(snapshot.NewSource(seed))
	n := &Net{sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		w := NewMatrix(sizes[l+1], sizes[l])
		w.XavierInit(rng)
		n.W = append(n.W, w)
		n.B = append(n.B, make([]float64, sizes[l+1]))
	}
	return n
}

// InputSize returns the expected input dimension.
func (n *Net) InputSize() int { return n.sizes[0] }

// OutputSize returns the output dimension.
func (n *Net) OutputSize() int { return n.sizes[len(n.sizes)-1] }

// NumParams returns the total parameter count.
func (n *Net) NumParams() int {
	total := 0
	for l := range n.W {
		total += len(n.W[l].Data) + len(n.B[l])
	}
	return total
}

// Forward returns the output logits for input x.
func (n *Net) Forward(x []float64) []float64 {
	a := x
	for l := range n.W {
		z := n.W[l].MulVec(a)
		for i := range z {
			z[i] += n.B[l][i]
		}
		if l < len(n.W)-1 {
			for i := range z {
				if z[i] < 0 {
					z[i] = 0
				}
			}
		}
		a = z
	}
	return a
}

// ForwardBatch computes the output logits for a whole batch of inputs
// (one per row of x) with one fused GEMM per layer, storing the
// per-layer activations in ws for a following BackpropBatch. The
// returned batch×outputSize matrix is workspace scratch, valid until
// the next ForwardBatch on ws. Row r of the result is bit-identical to
// Forward(x.Row(r)): the batched kernels keep every dot product's
// accumulation order.
func (n *Net) ForwardBatch(x *Matrix, ws *Workspace) *Matrix {
	if x.Cols != n.InputSize() {
		panic(fmt.Sprintf("nn: ForwardBatch input size %d, want %d", x.Cols, n.InputSize()))
	}
	ws.ensureBatch(n, x.Rows)
	ws.acts[0] = x
	for l := range n.W {
		mulABT(ws.acts[l+1], ws.acts[l], n.W[l], n.B[l], l < len(n.W)-1)
	}
	return ws.acts[len(n.W)]
}

// BackpropBatch accumulates into g the parameter gradients of a scalar
// loss over the batch most recently run through ForwardBatch(x, ws),
// where dOut[r] is the gradient w.r.t. the output logits of batch row
// r. The accumulated gradients are bit-identical to calling Backprop
// per row in ascending order (the gradient w.r.t. the inputs is not
// computed — no caller uses it).
func (n *Net) BackpropBatch(dOut *Matrix, ws *Workspace, g *Grads) {
	last := len(n.W) - 1
	m := dOut.Rows
	if ws.net != n || ws.acts[last+1].Rows != m {
		panic("nn: BackpropBatch without a matching ForwardBatch")
	}
	if dOut.Cols != n.OutputSize() {
		panic(fmt.Sprintf("nn: BackpropBatch dOut size %d, want %d", dOut.Cols, n.OutputSize()))
	}
	delta := ws.deltas[last]
	copy(delta.Data, dOut.Data[:m*dOut.Cols])
	for l := last; l >= 0; l-- {
		if l < last {
			// ReLU derivative on the post-activation values, exactly as
			// the per-sample path: zero the delta where the activation
			// was clamped.
			act := ws.acts[l+1]
			for i, v := range act.Data {
				if v <= 0 {
					delta.Data[i] = 0
				}
			}
		}
		accumGrad(g.DW[l], g.DB[l], delta, ws.acts[l])
		if l > 0 {
			mulAB(ws.deltas[l-1], delta, n.W[l])
			delta = ws.deltas[l-1]
		}
	}
}

// Grads accumulates parameter gradients shaped like a Net.
type Grads struct {
	DW []*Matrix
	DB [][]float64
}

// NewGrads returns zeroed gradients for n.
func (n *Net) NewGrads() *Grads {
	g := &Grads{}
	for l := range n.W {
		g.DW = append(g.DW, NewMatrix(n.W[l].Rows, n.W[l].Cols))
		g.DB = append(g.DB, make([]float64, len(n.B[l])))
	}
	return g
}

// Zero clears the gradients.
func (g *Grads) Zero() {
	for l := range g.DW {
		g.DW[l].Zero()
		for i := range g.DB[l] {
			g.DB[l][i] = 0
		}
	}
}

// Scale multiplies all gradients by s.
func (g *Grads) Scale(s float64) {
	for l := range g.DW {
		for i := range g.DW[l].Data {
			g.DW[l].Data[i] *= s
		}
		for i := range g.DB[l] {
			g.DB[l][i] *= s
		}
	}
}

// Backprop accumulates into g the gradients of a scalar loss whose
// gradient w.r.t. the output logits is gradOut, for input x. It returns
// the gradient w.r.t. the input (occasionally useful for diagnostics).
func (n *Net) Backprop(x []float64, gradOut []float64, g *Grads) []float64 {
	if len(x) != n.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.InputSize()))
	}
	if len(gradOut) != n.OutputSize() {
		panic(fmt.Sprintf("nn: gradOut size %d, want %d", len(gradOut), n.OutputSize()))
	}
	// Forward with cached activations.
	acts := make([][]float64, len(n.W)+1)
	acts[0] = x
	for l := range n.W {
		z := n.W[l].MulVec(acts[l])
		for i := range z {
			z[i] += n.B[l][i]
		}
		if l < len(n.W)-1 {
			for i := range z {
				if z[i] < 0 {
					z[i] = 0
				}
			}
		}
		acts[l+1] = z
	}
	// Backward.
	delta := append([]float64(nil), gradOut...)
	for l := len(n.W) - 1; l >= 0; l-- {
		if l < len(n.W)-1 {
			// ReLU derivative on the post-activation values.
			for i := range delta {
				if acts[l+1][i] <= 0 {
					delta[i] = 0
				}
			}
		}
		in := acts[l]
		dw := g.DW[l]
		for i := range delta {
			di := delta[i]
			if di == 0 {
				continue
			}
			row := dw.Data[i*dw.Cols : (i+1)*dw.Cols]
			for j, xj := range in {
				row[j] += float64(di * xj)
			}
			g.DB[l][i] += di
		}
		if l > 0 {
			delta = n.W[l].MulVecT(delta)
		} else {
			delta = n.W[0].MulVecT(delta)
		}
	}
	return delta
}

// Adam is the Adam optimiser state for one Net.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	mW, vW                []*Matrix
	mB, vB                [][]float64
}

// NewAdam returns an Adam optimiser with standard hyper-parameters.
func NewAdam(n *Net, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	for l := range n.W {
		a.mW = append(a.mW, NewMatrix(n.W[l].Rows, n.W[l].Cols))
		a.vW = append(a.vW, NewMatrix(n.W[l].Rows, n.W[l].Cols))
		a.mB = append(a.mB, make([]float64, len(n.B[l])))
		a.vB = append(a.vB, make([]float64, len(n.B[l])))
	}
	return a
}

// StepCount reports how many optimiser steps have been applied. With
// minibatch training this advances once per flushed batch, not once per
// recorded decision.
func (a *Adam) StepCount() int { return a.t }

// Apply performs one Adam step with gradients g.
func (a *Adam) Apply(n *Net, g *Grads) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	floor := a.skipFloor(c1, c2)
	for l := range n.W {
		a.step(n.W[l].Data, a.mW[l].Data, a.vW[l].Data, g.DW[l].Data, c1, c2, floor)
		a.step(n.B[l], a.mB[l], a.vB[l], g.DB[l], c1, c2, floor)
	}
}

// step applies one Adam update to the parameters w with moments m, v
// and gradient g, with the expressions and evaluation order of the
// historical per-element loop:
//
//	m ← β1·m + (1−β1)·g
//	v ← β2·v + (1−β2)·g·g
//	w ← w − LR·(m/c1) / (√(v/c2) + ε)
//
// A weight whose gradient has been exactly zero for hundreds of steps
// has a first moment that has decayed into the subnormals, where it
// sticks (0.9·k·2^-1074 rounds back to k·2^-1074 for k ≤ 4). Go runs
// without flush-to-zero, and on Intel CPUs a multiply or divide with a
// subnormal operand takes a microcode assist (a multiply measured about
// 60 ns on a 2-vCPU Xeon VM, against about 1 ns). Three shortcuts
// remove those assists and leave every bit as it was:
//
//   - β1·m for a subnormal m is computed exactly in integer arithmetic
//     (mulSubnormal) instead of by the FPU.
//   - Once β1^t < 2^-54, c1 is exactly 1 and m/1 == m, so the division
//     is dropped.
//   - A parameter whose new first moment is subnormal or zero, and whose
//     |w| is at least floor (see skipFloor), keeps its w: the update is
//     provably less than half an ulp of w.
func (a *Adam) step(w, m, v, g []float64, c1, c2, floor float64) {
	b1, b2, lr, eps := a.Beta1, a.Beta2, a.LR, a.Eps
	ob1, ob2 := 1-b1, 1-b2
	b1sig, b1exact := unitSignificand(b1)
	m, v, g = m[:len(w)], v[:len(w)], g[:len(w)]
	for i, gv := range g {
		var bm float64
		if mb := math.Float64bits(m[i]); mb&expMask == 0 && mb<<1 != 0 && b1exact {
			bm = mulSubnormal(b1sig, mb)
		} else {
			bm = float64(b1 * m[i])
		}
		mi := bm + float64(ob1*gv)
		vi := float64(b2*v[i]) + float64(ob2*gv*gv)
		m[i], v[i] = mi, vi
		if math.Abs(mi) < 0x1p-1022 && vi >= 0 && vi <= math.MaxFloat64 && math.Abs(w[i]) >= floor {
			continue
		}
		q := mi
		if c1 != 1 {
			q = mi / c1
		}
		w[i] -= lr * q / (math.Sqrt(vi/c2) + eps)
	}
}

// expMask selects the exponent bits of a float64: they are all zero
// exactly for ±0 and the subnormals.
const expMask = 0x7ff0000000000000

// unitSignificand returns the 53-bit significand B of b, so that
// b = B·2^-53, when 0.5 ≤ b < 1; ok is false for any other b.
func unitSignificand(b float64) (sig uint64, ok bool) {
	if !(b >= 0.5 && b < 1) {
		return 0, false
	}
	return math.Float64bits(b)&(1<<52-1) | 1<<52, true
}

// mulSubnormal returns fl(b·m), bit for bit, for b = sig·2^-53 in
// [0.5, 1) and m the subnormal or zero float with bits mb, without a
// floating-point multiply. With m = ±k·2^-1074 (k < 2^52 its mantissa
// field), the exact product is ±(sig·k/2^53)·2^-1074, and
// sig·k/2^53 < k, so the result is again subnormal or zero, where the
// floats are the multiples of 2^-1074: round-to-nearest-even of the
// 105-bit integer sig·k at bit 53 gives the result's mantissa field q,
// with q ≤ k. The sign is m's (b > 0), a zero result included.
func mulSubnormal(sig, mb uint64) float64 {
	hi, lo := bits.Mul64(sig, mb&^(1<<63))
	q := hi<<11 | lo>>53
	if rem := lo & (1<<53 - 1); rem > 1<<52 || rem == 1<<52 && q&1 == 1 {
		q++
	}
	return math.Float64frombits(mb&(1<<63) | q)
}

// skipFloor returns the least |w| at which step may leave a parameter
// with a subnormal or zero first moment m unchanged, or NaN (no |w|
// qualifies) when the argument below does not apply.
//
// Let M = 2^-1022, so |m| < M, and let the update be
// δ = fl(fl(LR·fl(m/c1)) / D) with D = fl(fl(√fl(v/c2)) + ε). For
// ε > 0, c1 > 0, c2 > 0 and finite v ≥ 0 (step checks v): v/c2 ≥ 0, so
// D ≥ fl(0 + ε) = ε. Rounding is monotone, so
// |fl(m/c1)| ≤ fl(M/c1), |fl(LR·fl(m/c1))| ≤ fl(|LR|·fl(M/c1)) and
// |δ| ≤ B = fl(fl(|LR|·fl(M/c1)) / ε). When c1 == 1 step uses m itself,
// and |m| < M = fl(M/1) gives the same bound.
//
// Take floor = 2^56·B, exact as a power-of-two scaling when finite. If
// B > 0 and |w| ≥ floor, then |δ| ≤ 2^-56·|w| < 2^-55·|w|. For a normal
// w with 2^e ≤ |w| < 2^(e+1) that is |δ| < 2^(e-54), less than half the
// smaller gap, 2^(e-53), between w and its neighbours; for a subnormal
// w it is below 2^-1077, less than half of the uniform gap 2^-1074. So
// the exact w − δ is nearer to w than to any other float, and
// fl(w − δ) == w. If B == 0 then δ = ±0, and w − (±0) == w for every
// w ≠ 0; the floor is raised to the least positive float to exclude
// w = ±0 (where +0 − (+0) and −0 − (−0) give +0). An infinite w stays
// infinite against a finite δ.
//
// Everything else takes the exact expression: ε ≤ 0 or NaN, c1 or c2 not
// positive (β outside [0, 1)), a floor that overflows or is NaN (a huge
// or NaN LR), a non-finite or negative v, and |w| below the floor.
func (a *Adam) skipFloor(c1, c2 float64) float64 {
	if !(a.Eps > 0 && c1 > 0 && c2 > 0) {
		return math.NaN()
	}
	b := math.Abs(a.LR) * (0x1p-1022 / c1) / a.Eps
	floor := b * 0x1p56
	if !(floor <= math.MaxFloat64) {
		return math.NaN()
	}
	return math.Max(floor, math.SmallestNonzeroFloat64)
}
