package nn

import (
	"math/rand"

	"mlfs/internal/snapshot"
)

// Policy is a softmax policy over a variable number of candidates. A
// shared scoring network maps each candidate's feature vector to one
// logit; the action distribution is the softmax over candidate logits.
// This is how MLF-RL turns "pick a destination server for this task"
// into a fixed-size network despite variable cluster/queue sizes (§3.4).
//
// Scoring and training run on the batched execution engine: all
// candidates of a decision are one candidates×features matrix pushed
// through one fused GEMM per layer against the policy's Workspace, so a
// steady-state decision allocates nothing. The engine is bit-identical
// to the per-sample reference path (Forward/Backprop per candidate);
// SetReference flips back to the reference implementation so tests can
// prove it.
type Policy struct {
	Net *Net
	Opt *Adam

	// Baseline is an exponential moving average of observed rewards used
	// as the REINFORCE variance-reduction baseline.
	Baseline     float64
	BaselineBeta float64
	baselineInit bool

	rng *rand.Rand
	// src is the draw-counting source under rng (identical bit-stream to
	// rand.NewSource); it records the stream position for EncodeState.
	src   *snapshot.Source
	grads *Grads
	ws    *Workspace
	accum int // decisions accumulated into grads since the last Step

	reference bool
}

// NewPolicy builds a scoring MLP inputSize → hidden... → 1 and an Adam
// optimiser.
func NewPolicy(inputSize int, hidden []int, lr float64, seed int64) *Policy {
	sizes := append([]int{inputSize}, hidden...)
	sizes = append(sizes, 1)
	net := NewNet(sizes, seed)
	src := snapshot.NewSource(seed + 1)
	return &Policy{
		Net:          net,
		Opt:          NewAdam(net, lr),
		BaselineBeta: 0.9,
		rng:          rand.New(src),
		src:          src,
		grads:        net.NewGrads(),
		ws:           new(Workspace),
	}
}

// SetReference toggles the per-sample reference implementation of
// scoring and training. Test seam only: it exists so determinism tests
// can prove the batched engine bit-identical to the historical
// per-candidate path, like the simulator's admitOrder seam.
func (p *Policy) SetReference(on bool) { p.reference = on }

// Flip returns true with probability prob, drawn from the policy's own
// rng (used for epsilon-greedy exploration schedules).
func (p *Policy) Flip(prob float64) bool { return p.rng.Float64() < prob }

// Candidates returns the policy's staging matrix reshaped to n rows of
// feature-vector width, for the caller to fill one candidate per row.
// The matrix is scratch owned by the policy, valid until the next
// Candidates call; record-keeping callers must copy it (see Imitate and
// Reinforce for the wrapped per-slice API).
func (p *Policy) Candidates(n int) *Matrix {
	return p.ws.staging(n, p.Net.InputSize())
}

// pack copies a [][]float64 candidate list into the staging matrix.
func (p *Policy) pack(candidates [][]float64) *Matrix {
	x := p.Candidates(len(candidates))
	for i, f := range candidates {
		copy(x.Row(i), f)
	}
	return x
}

// Probs returns the softmax action distribution over candidates. The
// returned slice is scratch, valid until the next scoring call.
func (p *Policy) Probs(candidates [][]float64) []float64 {
	return p.ProbsBatch(p.pack(candidates))
}

// ProbsBatch returns the softmax action distribution over the
// candidates in x (one feature vector per row). The returned slice is
// scratch, valid until the next scoring call.
func (p *Policy) ProbsBatch(x *Matrix) []float64 {
	if p.reference {
		return p.probsRef(x)
	}
	logits := p.Net.ForwardBatch(x, p.ws)
	return SoftmaxInto(p.ws.probsBuf(x.Rows), logits.Data)
}

// probsRef is the per-sample reference scoring path.
func (p *Policy) probsRef(x *Matrix) []float64 {
	logits := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		logits[i] = p.Net.Forward(x.Row(i))[0]
	}
	return Softmax(logits)
}

// Choose picks a candidate: sampled from the distribution when explore
// is true, greedy argmax otherwise. It returns the index and the
// distribution it was drawn from (scratch, valid until the next call).
func (p *Policy) Choose(candidates [][]float64, explore bool) (int, []float64) {
	return p.ChooseBatch(p.pack(candidates), explore)
}

// ChooseBatch is Choose over a candidates×features matrix.
func (p *Policy) ChooseBatch(x *Matrix, explore bool) (int, []float64) {
	probs := p.ProbsBatch(x)
	if explore {
		return SampleCategorical(p.rng, probs), probs
	}
	return Argmax(probs), probs
}

// Accumulated reports how many decisions have been accumulated into the
// pending gradient since the last Step.
func (p *Policy) Accumulated() int { return p.accum }

// Step applies one optimiser update over the accumulated decisions
// (mean gradient) and resets the accumulator. A no-op when nothing is
// accumulated, so the optimiser state advances only on real updates.
func (p *Policy) Step() {
	if p.accum == 0 {
		return
	}
	if p.accum > 1 {
		p.grads.Scale(1.0 / float64(p.accum))
	}
	p.Opt.Apply(p.Net, p.grads)
	p.accum = 0
}

// accumLogitGrads backpropagates the per-candidate logit gradients in
// ws.dl for the batch just scored, accumulating into the pending
// gradient.
func (p *Policy) accumLogitGrads(dLogits *Matrix) {
	if p.accum == 0 {
		p.grads.Zero()
	}
	p.Net.BackpropBatch(dLogits, p.ws, p.grads)
	p.accum++
}

// AccumImitate accumulates (without applying) the gradient of one
// supervised decision pulling the policy toward choosing target
// (cross-entropy over the candidates in x); it returns the loss.
// Combine with Step for minibatch imitation.
func (p *Policy) AccumImitate(x *Matrix, target int) float64 {
	probs := p.ProbsBatch(x)
	loss := CrossEntropy(probs, target)
	dl := p.ws.dlogits(len(probs))
	for i, pr := range probs {
		dl.Data[i] = pr
	}
	dl.Data[target] -= 1
	p.accumLogitGrads(dl)
	return loss
}

// ImitateBatch performs one supervised step on a single decision: the
// candidates×features matrix x and the index of the correct choice.
// MLFS pre-trains MLF-RL on MLF-H's decisions this way before switching
// over (§3.4: "initially runs MLF-H for a certain time period and uses
// the data to train").
func (p *Policy) ImitateBatch(x *Matrix, target int) float64 {
	if p.reference {
		return p.imitateRef(x, target)
	}
	loss := p.AccumImitate(x, target)
	p.Step()
	return loss
}

// Imitate is ImitateBatch over a [][]float64 candidate list.
func (p *Policy) Imitate(candidates [][]float64, target int) float64 {
	return p.ImitateBatch(p.pack(candidates), target)
}

// AccumReinforce accumulates (without applying) one REINFORCE decision:
// ascend reward·∇log π(chosen) over the candidates in x. The internal
// baseline is subtracted and updated with the raw reward exactly as in
// the per-decision schedule. It reports whether the decision
// contributed a gradient (a zero advantage contributes nothing, and —
// matching the historical path — must not advance the optimiser).
func (p *Policy) AccumReinforce(x *Matrix, chosen int, reward float64) bool {
	if !p.baselineInit {
		p.Baseline = reward
		p.baselineInit = true
	}
	advantage := reward - p.Baseline
	p.Baseline = p.BaselineBeta*p.Baseline + (1-p.BaselineBeta)*reward
	if advantage == 0 {
		return false
	}
	probs := p.ProbsBatch(x)
	// d(−A·log π_c)/dlogit_i = A·(π_i − 1{i=c})
	dl := p.ws.dlogits(len(probs))
	for i, pr := range probs {
		dl.Data[i] = advantage * pr
	}
	dl.Data[chosen] -= advantage
	p.accumLogitGrads(dl)
	return true
}

// ReinforceBatch performs one REINFORCE step for a single recorded
// decision over the candidates in x.
func (p *Policy) ReinforceBatch(x *Matrix, chosen int, reward float64) {
	if p.reference {
		p.reinforceRef(x, chosen, reward)
		return
	}
	if p.AccumReinforce(x, chosen, reward) {
		p.Step()
	}
}

// Reinforce is ReinforceBatch over a [][]float64 candidate list.
func (p *Policy) Reinforce(candidates [][]float64, chosen int, reward float64) {
	p.ReinforceBatch(p.pack(candidates), chosen, reward)
}

// applyLogitGradsRef is the per-sample reference update: backpropagate
// dLoss/dlogit_i for every candidate and take one Adam step.
func (p *Policy) applyLogitGradsRef(x *Matrix, dLogits []float64) {
	p.grads.Zero()
	for i := 0; i < x.Rows; i++ {
		if dLogits[i] == 0 {
			continue
		}
		p.Net.Backprop(x.Row(i), []float64{dLogits[i]}, p.grads)
	}
	p.Opt.Apply(p.Net, p.grads)
}

// imitateRef is the per-sample reference imitation step.
func (p *Policy) imitateRef(x *Matrix, target int) float64 {
	probs := p.probsRef(x)
	loss := CrossEntropy(probs, target)
	dLogits := make([]float64, len(probs))
	for i, pr := range probs {
		dLogits[i] = pr
	}
	dLogits[target] -= 1
	p.applyLogitGradsRef(x, dLogits)
	return loss
}

// reinforceRef is the per-sample reference REINFORCE step.
func (p *Policy) reinforceRef(x *Matrix, chosen int, reward float64) {
	if !p.baselineInit {
		p.Baseline = reward
		p.baselineInit = true
	}
	advantage := reward - p.Baseline
	p.Baseline = p.BaselineBeta*p.Baseline + (1-p.BaselineBeta)*reward
	if advantage == 0 {
		return
	}
	probs := p.probsRef(x)
	dLogits := make([]float64, len(probs))
	for i, pr := range probs {
		dLogits[i] = advantage * pr
	}
	dLogits[chosen] -= advantage
	p.applyLogitGradsRef(x, dLogits)
}
