package nn

import (
	"errors"
	"math/rand"
	"testing"

	"mlfs/internal/snapshot"
)

const learnerWidth = 6

// learnerRound drives one round of l: it opens the round with a reward
// drawn from rng, then makes n decisions over rng-drawn candidates,
// imitating a drawn target during the warm-up.
func learnerRound(l *Learner, rng *rand.Rand, n int) {
	l.BeginRound(rng.Float64())
	for i := 0; i < n; i++ {
		x := l.Policy().Candidates(2 + rng.Intn(5))
		for k := range x.Data {
			x.Data[k] = rng.NormFloat64()
		}
		if l.Imitating() {
			l.Imitate(x, rng.Intn(x.Rows))
		} else {
			l.Decide(x, rng.Intn(2) == 0)
		}
	}
}

func newTestLearner(warmup, batch int) *Learner {
	return NewLearner(NewPolicy(learnerWidth, []int{8}, 1e-2, 3), warmup, 5, 0.95, batch)
}

func encodeLearner(l *Learner) []byte {
	w := snapshot.NewWriter()
	l.EncodeState(w)
	return w.Bytes()
}

// TestLearnerRoundTripMidDelay encodes a learner while decisions are
// pending and the reward ring is partly filled, decodes it into a fresh
// learner, and runs both on: weights, Adam moments and the REINFORCE
// baseline must stay bit-equal, at one step per decision and with
// minibatches, and across the end of the warm-up.
func TestLearnerRoundTripMidDelay(t *testing.T) {
	for _, tc := range []struct {
		name          string
		warmup, batch int
	}{
		{"step-per-decision", 0, 1},
		{"minibatch", 0, 4},
		{"warmup-ends-after-resume", 3, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := newTestLearner(tc.warmup, tc.batch)
			rng := rand.New(rand.NewSource(17))
			for r := 0; r < 2; r++ {
				learnerRound(orig, rng, 3)
			}
			payload := encodeLearner(orig)
			restored := newTestLearner(tc.warmup, tc.batch)
			rd := snapshot.NewReader(payload)
			if err := restored.DecodeState(rd); err != nil {
				t.Fatal(err)
			}
			if err := rd.Finish(); err != nil {
				t.Fatal(err)
			}
			// Both continue on identical inputs.
			seed := rng.Int63()
			ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for r := 0; r < 9; r++ {
				learnerRound(orig, ra, 3)
				learnerRound(restored, rb, 3)
			}
			if orig.Updates() == 0 {
				t.Fatal("no decision was credited after the resume")
			}
			a, b := orig.Policy(), restored.Policy()
			netsEqual(t, a.Net, b.Net)
			for l := range a.Opt.mW {
				for _, pair := range [][2][]float64{
					{a.Opt.mW[l].Data, b.Opt.mW[l].Data}, {a.Opt.vW[l].Data, b.Opt.vW[l].Data},
					{a.Opt.mB[l], b.Opt.mB[l]}, {a.Opt.vB[l], b.Opt.vB[l]},
				} {
					for i := range pair[0] {
						if pair[0][i] != pair[1][i] {
							t.Fatalf("adam moment of layer %d diverged at %d: %v vs %v", l, i, pair[0][i], pair[1][i])
						}
					}
				}
			}
			if a.Baseline != b.Baseline {
				t.Fatalf("baseline %v vs %v", a.Baseline, b.Baseline)
			}
		})
	}
}

// TestLearnerDecodeRejectsCrafted feeds DecodeState learner payloads no
// run can produce. Each must be refused as corrupt, not accepted and
// left to crash a later round.
func TestLearnerDecodeRejectsCrafted(t *testing.T) {
	type pend struct {
		round, rows, values, chosen int
	}
	policy := encodePolicy(newTestLearner(0, 1).Policy())
	craft := func(round, ring int, pending []pend) []byte {
		w := snapshot.NewWriter()
		w.Int(round)
		w.Int(0) // imitated
		w.Int(0) // updates
		w.Bool(true)
		w.Floats(make([]float64, ring))
		w.Int(len(pending))
		for _, p := range pending {
			w.Int(p.round)
			w.Int(p.rows)
			w.Floats(make([]float64, p.values))
			w.Int(p.chosen)
		}
		return append(w.Bytes(), policy...)
	}
	ok := pend{round: 10, rows: 2, values: 2 * learnerWidth, chosen: 1}
	with := func(f func(*pend)) []pend {
		p := ok
		f(&p)
		return []pend{p}
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"negative round", craft(-1, 5, nil)},
		{"ring shorter than delay", craft(10, 4, nil)},
		{"ring longer than delay", craft(10, 6, nil)},
		{"negative pending round", craft(10, 5, with(func(p *pend) { p.round = -100 }))},
		{"pending round older than the delay", craft(10, 5, with(func(p *pend) { p.round = 5 }))},
		{"pending round in the future", craft(10, 5, with(func(p *pend) { p.round = 11 }))},
		{"pending rounds descending", craft(10, 5, []pend{ok, with(func(p *pend) { p.round = 9 })[0]})},
		{"empty decision matrix", craft(10, 5, with(func(p *pend) { p.rows, p.values, p.chosen = 0, 0, 0 }))},
		{"ragged decision matrix", craft(10, 5, with(func(p *pend) { p.values-- }))},
		{"negative choice", craft(10, 5, with(func(p *pend) { p.chosen = -1 }))},
		{"choice past the candidates", craft(10, 5, with(func(p *pend) { p.chosen = 2 }))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := newTestLearner(0, 1).DecodeState(snapshot.NewReader(tc.payload))
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("DecodeState = %v, want a corrupt-snapshot error", err)
			}
		})
	}
	// The same layout with valid values decodes, and the learner runs on.
	edge := with(func(p *pend) { p.round = 6 })[0] // the oldest round still pending
	l := newTestLearner(0, 1)
	if err := l.DecodeState(snapshot.NewReader(craft(10, 5, []pend{edge, ok, ok}))); err != nil {
		t.Fatalf("valid payload refused: %v", err)
	}
	learnerRound(l, rand.New(rand.NewSource(1)), 1)
	if l.Updates() != 1 {
		t.Fatalf("%d decisions credited in the round after decoding, want 1", l.Updates())
	}
}

func encodePolicy(p *Policy) []byte {
	w := snapshot.NewWriter()
	p.EncodeState(w)
	return w.Bytes()
}
