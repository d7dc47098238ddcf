package nn

import (
	"math/rand"
	"testing"
)

// randomNet builds a net with random layer sizes and a random input
// batch, both driven by rng.
func randomNet(rng *rand.Rand) (*Net, *Matrix) {
	depth := 2 + rng.Intn(3)
	sizes := make([]int, depth+1)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(40)
	}
	n := NewNet(sizes, rng.Int63())
	batch := 1 + rng.Intn(50)
	x := NewMatrix(batch, sizes[0])
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return n, x
}

// TestForwardBatchMatchesPerSample pins the engine's core guarantee:
// every row of a ForwardBatch result is bit-identical to running that
// row through the per-sample Forward path, on random nets and batches.
func TestForwardBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ws := new(Workspace)
	for trial := 0; trial < 50; trial++ {
		n, x := randomNet(rng)
		out := n.ForwardBatch(x, ws)
		for r := 0; r < x.Rows; r++ {
			want := n.Forward(x.Row(r))
			got := out.Row(r)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d row %d: batched logit[%d] = %v, per-sample %v",
						trial, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBackpropBatchMatchesPerSample: accumulating a batch's gradients
// with BackpropBatch must be bit-identical to calling Backprop row by
// row in ascending order — the per-sample reference the historical
// training path used.
func TestBackpropBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ws := new(Workspace)
	for trial := 0; trial < 50; trial++ {
		n, x := randomNet(rng)
		out := n.OutputSize()
		dOut := NewMatrix(x.Rows, out)
		for i := range dOut.Data {
			// Mix in exact zeros: the per-sample path skips them, and the
			// batched path must match that too.
			if rng.Intn(4) == 0 {
				dOut.Data[i] = 0
			} else {
				dOut.Data[i] = rng.NormFloat64()
			}
		}

		gWant := n.NewGrads()
		for r := 0; r < x.Rows; r++ {
			n.Backprop(x.Row(r), dOut.Row(r), gWant)
		}

		gGot := n.NewGrads()
		n.ForwardBatch(x, ws)
		n.BackpropBatch(dOut, ws, gGot)

		for l := range n.W {
			for i, v := range gWant.DW[l].Data {
				if gGot.DW[l].Data[i] != v {
					t.Fatalf("trial %d: DW[%d][%d] = %v, per-sample %v", trial, l, i, gGot.DW[l].Data[i], v)
				}
			}
			for i, v := range gWant.DB[l] {
				if gGot.DB[l][i] != v {
					t.Fatalf("trial %d: DB[%d][%d] = %v, per-sample %v", trial, l, i, gGot.DB[l][i], v)
				}
			}
		}
	}
}

// policyPair builds two identically seeded policies, one batched and
// one on the per-sample reference path.
func policyPair(seed int64) (batched, reference *Policy) {
	batched = NewPolicy(18, []int{32, 16}, 3e-4, seed)
	reference = NewPolicy(18, []int{32, 16}, 3e-4, seed)
	reference.SetReference(true)
	return batched, reference
}

// netsEqual reports whether two nets have bit-identical parameters.
func netsEqual(t *testing.T, a, b *Net) {
	t.Helper()
	for l := range a.W {
		for i, v := range a.W[l].Data {
			if b.W[l].Data[i] != v {
				t.Fatalf("W[%d][%d] diverged: %v vs %v", l, i, v, b.W[l].Data[i])
			}
		}
		for i, v := range a.B[l] {
			if b.B[l][i] != v {
				t.Fatalf("B[%d][%d] diverged: %v vs %v", l, i, v, b.B[l][i])
			}
		}
	}
}

// TestPolicyBatchedMatchesReference drives the same randomized
// imitation + REINFORCE workload through the batched engine and the
// per-sample reference path: every intermediate choice and the final
// network parameters must be bit-identical.
func TestPolicyBatchedMatchesReference(t *testing.T) {
	batched, reference := policyPair(41)
	rng := rand.New(rand.NewSource(5))
	cands := make([][]float64, 12)
	for step := 0; step < 120; step++ {
		nc := 2 + rng.Intn(10)
		cs := cands[:nc]
		for i := range cs {
			f := make([]float64, 18)
			for k := range f {
				f[k] = rng.NormFloat64()
			}
			cs[i] = f
		}
		switch step % 3 {
		case 0:
			target := rng.Intn(nc)
			lb := batched.Imitate(cs, target)
			lr := reference.Imitate(cs, target)
			if lb != lr {
				t.Fatalf("step %d: imitation loss %v vs reference %v", step, lb, lr)
			}
		case 1:
			ib, pb := batched.Choose(cs, true)
			ir, pr := reference.Choose(cs, true)
			if ib != ir {
				t.Fatalf("step %d: batched chose %d, reference %d", step, ib, ir)
			}
			for i := range pb {
				if pb[i] != pr[i] {
					t.Fatalf("step %d: prob[%d] %v vs %v", step, i, pb[i], pr[i])
				}
			}
		case 2:
			chosen := rng.Intn(nc)
			reward := rng.Float64()
			batched.Reinforce(cs, chosen, reward)
			reference.Reinforce(cs, chosen, reward)
			if batched.Baseline != reference.Baseline {
				t.Fatalf("step %d: baseline %v vs %v", step, batched.Baseline, reference.Baseline)
			}
		}
	}
	netsEqual(t, batched.Net, reference.Net)
}

// TestMinibatchStepDeterminism: accumulating a minibatch must advance
// the optimiser exactly once per flush, and two identically seeded
// policies fed the same minibatches must end bit-identical.
func TestMinibatchStepDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	batches := make([]*Matrix, 24)
	targets := make([]int, 24)
	for i := range batches {
		m := NewMatrix(16, 18)
		for k := range m.Data {
			m.Data[k] = rng.NormFloat64()
		}
		batches[i] = m
		targets[i] = rng.Intn(16)
	}
	run := func() *Net {
		p := NewPolicy(18, []int{32, 16}, 3e-4, 7)
		for i, m := range batches {
			p.AccumImitate(m, targets[i])
			if p.Accumulated() == 8 {
				p.Step()
			}
		}
		if p.Opt.StepCount() != 3 {
			t.Fatalf("%d optimiser steps, want 3", p.Opt.StepCount())
		}
		return p.Net
	}
	netsEqual(t, run(), run())
}

// TestBatchedScoringZeroAllocs proves the zero-steady-state-allocation
// claim for the full per-decision hot path: staging candidates, scoring
// them, and taking an imitation step.
func TestBatchedScoringZeroAllocs(t *testing.T) {
	p := NewPolicy(18, []int{32, 16}, 3e-4, 19)
	rng := rand.New(rand.NewSource(3))
	fill := func(m *Matrix) {
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
	}
	// Warm up every buffer at the largest candidate count used.
	x := p.Candidates(16)
	fill(x)
	p.ImitateBatch(x, 3)
	p.ChooseBatch(x, true)

	if a := testing.AllocsPerRun(200, func() {
		x := p.Candidates(16)
		fill(x)
		p.ChooseBatch(x, false)
	}); a != 0 {
		t.Fatalf("batched scoring allocates %.1f times per decision, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		x := p.Candidates(16)
		fill(x)
		p.ImitateBatch(x, 5)
	}); a != 0 {
		t.Fatalf("batched imitation step allocates %.1f times per decision, want 0", a)
	}
}

// TestWorkspaceReuseAcrossBatchSizes: shrinking then regrowing the
// batch must reuse the grown buffers without reallocation.
func TestWorkspaceReuseAcrossBatchSizes(t *testing.T) {
	n := NewNet([]int{8, 16, 1}, 1)
	ws := new(Workspace)
	x := NewMatrix(40, 8)
	n.ForwardBatch(x, ws)
	if a := testing.AllocsPerRun(50, func() {
		for _, rows := range []int{1, 40, 7} {
			x.Reshape(rows, 8)
			n.ForwardBatch(x, ws)
		}
	}); a != 0 {
		t.Fatalf("reshaped ForwardBatch allocates %.1f times, want 0", a)
	}
}
