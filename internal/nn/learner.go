package nn

import (
	"math"

	"mlfs/internal/snapshot"
)

// Learner is the training loop of the learned schedulers (MLF-RL and
// the rl baseline). For the warm-up rounds every decision imitates a
// teacher's choice; afterwards the policy decides, and each decision is
// credited by REINFORCE with the delayed, discounted reward of §3.4:
// Σₖ ηᵏ·r₍ₜ₊₁₊ₖ₎ over the delay rounds that follow decision round t.
//
// A scheduler supplies the rest: the round's reward (BeginRound), the
// candidates' feature rows (written into Policy().Candidates), its
// teacher's choice (Imitate) and whether to explore (Decide). Credit
// reads only the last delay rewards, so they live in a ring of delay
// entries, and the learner's state is bounded by the decisions of the
// last delay rounds.
type Learner struct {
	policy *Policy
	warmup int       // rounds 1..warmup imitate the teacher
	batch  int       // decisions per optimiser step; ≤ 1 steps per decision
	disc   []float64 // disc[k] = ηᵏ, k < delay

	round    int
	ring     []float64 // ring[r%delay] is round r's reward, for the last delay rounds
	pending  []decision
	imitated int
	updates  int
	flushed  bool // imitation leftovers stepped at the phase switch

	free []*Matrix //mlfs:derived scratch: freelist backing decision.x
}

// decision is one policy decision waiting for its delayed reward. Its
// feature matrix comes from the learner's freelist and returns there
// once the decision is credited.
type decision struct {
	round  int
	x      *Matrix
	chosen int
}

// NewLearner trains p: rounds 1..warmup imitate, later decisions are
// credited delay rounds on with discount eta, and batch decisions make
// one optimiser step (batch ≤ 1: one step per decision, through the
// policy's single-decision updates). delay must be positive.
func NewLearner(p *Policy, warmup, delay int, eta float64, batch int) *Learner {
	disc := make([]float64, delay)
	for k := range disc {
		disc[k] = math.Pow(eta, float64(k))
	}
	return &Learner{policy: p, warmup: warmup, batch: batch, disc: disc, ring: make([]float64, delay)}
}

// Policy returns the policy being trained.
func (l *Learner) Policy() *Policy { return l.policy }

// Imitating reports whether the current round is a warm-up round.
func (l *Learner) Imitating() bool { return l.round <= l.warmup }

// Imitated returns the number of warm-up decisions learned.
func (l *Learner) Imitated() int { return l.imitated }

// Updates returns the number of decisions credited by REINFORCE.
func (l *Learner) Updates() int { return l.updates }

// BeginRound opens the next round with reward, the reward observed since
// the last round. At the first round past the warm-up it steps the
// imitation leftovers below one minibatch; then it credits every
// decision whose delay has passed.
func (l *Learner) BeginRound(reward float64) {
	l.round++
	if !l.flushed && !l.Imitating() {
		l.policy.Step()
		l.flushed = true
	}
	l.ring[l.round%len(l.ring)] = reward
	l.credit()
}

// credit applies REINFORCE, in decision order, to the decisions made
// delay rounds ago. Pending rounds ascend, and each round credits the
// decisions that matured in it, so the ring still holds every reward a
// matured decision reads.
func (l *Learner) credit() {
	delay := len(l.ring)
	n := 0
	for _, d := range l.pending {
		if l.round-d.round < delay {
			break
		}
		var r float64
		for k, f := range l.disc {
			r += float64(f * l.ring[(d.round+1+k)%delay])
		}
		if l.batch <= 1 {
			l.policy.ReinforceBatch(d.x, d.chosen, r)
		} else if l.policy.AccumReinforce(d.x, d.chosen, r) && l.policy.Accumulated() >= l.batch {
			l.policy.Step()
		}
		l.updates++
		l.free = append(l.free, d.x)
		n++
	}
	l.pending = l.pending[:copy(l.pending, l.pending[n:])]
}

// Imitate trains the policy toward target, the teacher's choice among
// the candidates in x.
func (l *Learner) Imitate(x *Matrix, target int) {
	if l.batch <= 1 {
		l.policy.ImitateBatch(x, target)
	} else {
		l.policy.AccumImitate(x, target)
		if l.policy.Accumulated() >= l.batch {
			l.policy.Step()
		}
	}
	l.imitated++
}

// Decide returns the policy's choice among the candidates in x (sampled
// when explore is set, the argmax otherwise) and records the decision
// for credit once its delay has passed.
func (l *Learner) Decide(x *Matrix, explore bool) int {
	chosen, _ := l.policy.ChooseBatch(x, explore)
	l.pending = append(l.pending, decision{round: l.round, x: l.matrix(x.Rows, x.Data), chosen: chosen})
	return chosen
}

// matrix returns a freelist matrix of rows candidates holding data.
func (l *Learner) matrix(rows int, data []float64) *Matrix {
	var m *Matrix
	if n := len(l.free); n > 0 {
		m = l.free[n-1]
		l.free = l.free[:n-1]
		m.Reshape(rows, l.policy.Net.InputSize())
	} else {
		m = NewMatrix(rows, l.policy.Net.InputSize())
	}
	copy(m.Data, data)
	return m
}

// EncodeState serialises the training state: the round and phase
// counters, the reward ring, every decision still waiting for its
// reward with its feature matrix, and the policy.
func (l *Learner) EncodeState(w *snapshot.Writer) {
	w.Int(l.round)
	w.Int(l.imitated)
	w.Int(l.updates)
	w.Bool(l.flushed)
	w.Floats(l.ring)
	w.Int(len(l.pending))
	for i := range l.pending {
		d := &l.pending[i]
		w.Int(d.round)
		w.Int(d.x.Rows)
		w.Floats(d.x.Data)
		w.Int(d.chosen)
	}
	l.policy.EncodeState(w)
}

// DecodeState restores a learner built with the same settings to the
// encoded state. It refuses, as corrupt, state the learner cannot have
// reached: a ring of other than delay rewards, pending rounds that
// descend or lie outside the last delay rounds, and a decision matrix
// or choice of the wrong shape.
func (l *Learner) DecodeState(r *snapshot.Reader) error {
	l.round = r.Int()
	l.imitated = r.Int()
	l.updates = r.Int()
	l.flushed = r.Bool()
	ring := r.Floats()
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if l.round < 0 || l.imitated < 0 || l.updates < 0 {
		return snapshot.Corruptf("learner counters round %d, imitated %d, updates %d", l.round, l.imitated, l.updates)
	}
	if len(ring) != len(l.ring) {
		return snapshot.Corruptf("reward ring of %d entries, want %d", len(ring), len(l.ring))
	}
	copy(l.ring, ring)
	for _, d := range l.pending {
		l.free = append(l.free, d.x)
	}
	l.pending = l.pending[:0]
	width := l.policy.Net.InputSize()
	last := l.round - len(l.ring) + 1
	for i := 0; i < n; i++ {
		round := r.Int()
		rows := r.Int()
		data := r.Floats()
		chosen := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if round < last || round > l.round {
			return snapshot.Corruptf("decision of round %d pending at round %d (from %d on)", round, l.round, last)
		}
		last = round
		if rows <= 0 || len(data) != rows*width {
			return snapshot.Corruptf("decision matrix of %d rows with %d values, want %d per row", rows, len(data), width)
		}
		if chosen < 0 || chosen >= rows {
			return snapshot.Corruptf("decision chose candidate %d of %d", chosen, rows)
		}
		l.pending = append(l.pending, decision{round: round, x: l.matrix(rows, data), chosen: chosen})
	}
	return l.policy.DecodeState(r)
}
