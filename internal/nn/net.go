package nn

import (
	"fmt"
	"math"
	"math/rand"
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
	rng := rand.New(rand.NewSource(seed))
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
				row[j] += di * xj
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

// ApplySGD performs one gradient-descent step: θ ← θ − lr·g.
func (n *Net) ApplySGD(g *Grads, lr float64) {
	for l := range n.W {
		n.W[l].AddScaled(g.DW[l], -lr)
		for i := range n.B[l] {
			n.B[l][i] -= lr * g.DB[l][i]
		}
	}
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
	for l := range n.W {
		for i, gv := range g.DW[l].Data {
			a.mW[l].Data[i] = a.Beta1*a.mW[l].Data[i] + (1-a.Beta1)*gv
			a.vW[l].Data[i] = a.Beta2*a.vW[l].Data[i] + (1-a.Beta2)*gv*gv
			n.W[l].Data[i] -= a.LR * (a.mW[l].Data[i] / c1) / (math.Sqrt(a.vW[l].Data[i]/c2) + a.Eps)
		}
		for i, gv := range g.DB[l] {
			a.mB[l][i] = a.Beta1*a.mB[l][i] + (1-a.Beta1)*gv
			a.vB[l][i] = a.Beta2*a.vB[l][i] + (1-a.Beta2)*gv*gv
			n.B[l][i] -= a.LR * (a.mB[l][i] / c1) / (math.Sqrt(a.vB[l][i]/c2) + a.Eps)
		}
	}
}
