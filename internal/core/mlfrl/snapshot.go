package mlfrl

import (
	"mlfs/internal/nn"
	"mlfs/internal/snapshot"
)

// EncodeState implements sched.Snapshotter: the training-phase cursor
// (round, imitation/update counters, leftover-flush latch), the reward
// history, every staged decision still waiting for its delayed reward —
// including its captured candidate-feature matrix — and the policy's
// full training state (weights, Adam moments, pending minibatch
// gradient, RNG position). Per-round scratch (prios/fit/featFree) is
// rebuilt on use and not persisted, and the MLF-H it runs on carries no
// state across rounds (core.MLFH.EncodeState writes nothing).
func (s *Scheduler) EncodeState(w *snapshot.Writer) {
	w.Int(s.round)
	w.Int(s.imitated)
	w.Int(s.updates)
	w.Bool(s.imitFlushed)
	w.Floats(s.rewards)
	w.Int(len(s.pending))
	for i := range s.pending {
		d := &s.pending[i]
		w.Int(d.round)
		w.Int(d.feats.Rows)
		w.Floats(d.feats.Data)
		w.Int(d.chosen)
	}
	s.policy.EncodeState(w)
}

// DecodeState implements sched.Snapshotter, restoring a scheduler built
// with the same Config to the encoded mid-training state. The MLF-H's
// priority-engine cache is derived state keyed on recycled simulator
// slots, so a restored run starts it empty (core.MLFH.DecodeState reads
// nothing).
func (s *Scheduler) DecodeState(r *snapshot.Reader) error {
	if err := s.heur.DecodeState(r); err != nil {
		return err
	}
	s.round = r.Int()
	s.imitated = r.Int()
	s.updates = r.Int()
	s.imitFlushed = r.Bool()
	s.rewards = r.Floats()
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	s.pending = s.pending[:0]
	for i := 0; i < n; i++ {
		round := r.Int()
		rows := r.Int()
		data := r.Floats()
		chosen := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if rows <= 0 || len(data) != rows*FeatureSize {
			return snapshot.Corruptf("decision matrix %d rows with %d values, want %d per row", rows, len(data), FeatureSize)
		}
		if chosen < 0 || chosen >= rows {
			return snapshot.Corruptf("decision chose candidate %d of %d", chosen, rows)
		}
		m := nn.NewMatrix(rows, FeatureSize)
		copy(m.Data, data)
		s.pending = append(s.pending, decision{round: round, feats: m, chosen: chosen})
	}
	return s.policy.DecodeState(r)
}
