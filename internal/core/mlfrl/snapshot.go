package mlfrl

import "mlfs/internal/snapshot"

// EncodeState implements sched.Snapshotter: the learner's state (round
// and phase counters, reward ring, decisions waiting for their delayed
// reward, policy). Per-round scratch (prios/fit) is rebuilt on use and
// not persisted, and the MLF-H it runs on carries no state across
// rounds (core.MLFH.EncodeState writes nothing).
func (s *Scheduler) EncodeState(w *snapshot.Writer) { s.learner.EncodeState(w) }

// DecodeState implements sched.Snapshotter, restoring a scheduler built
// with the same Config to the encoded mid-training state. The MLF-H's
// priority-engine cache is derived state keyed on recycled simulator
// slots, so a restored run starts it empty (core.MLFH.DecodeState reads
// nothing).
func (s *Scheduler) DecodeState(r *snapshot.Reader) error {
	if err := s.heur.DecodeState(r); err != nil {
		return err
	}
	return s.learner.DecodeState(r)
}
