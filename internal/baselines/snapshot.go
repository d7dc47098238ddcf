package baselines

import "mlfs/internal/snapshot"

// Every baseline implements sched.Snapshotter. The heuristics are pure
// functions of the round context (their structs hold configuration set
// at construction, never mutated), so their snapshot state is empty;
// only the RL baseline carries cross-round state — its learner (policy
// network, staged decisions and reward ring).

// EncodeState implements sched.Snapshotter (stateless).
func (*BorgFair) EncodeState(*snapshot.Writer) {}

// DecodeState implements sched.Snapshotter (stateless).
func (*BorgFair) DecodeState(*snapshot.Reader) error { return nil }

// EncodeState implements sched.Snapshotter (stateless).
func (*SLAQ) EncodeState(*snapshot.Writer) {}

// DecodeState implements sched.Snapshotter (stateless).
func (*SLAQ) DecodeState(*snapshot.Reader) error { return nil }

// EncodeState implements sched.Snapshotter (EpochSec is configuration).
func (*Tiresias) EncodeState(*snapshot.Writer) {}

// DecodeState implements sched.Snapshotter.
func (*Tiresias) DecodeState(*snapshot.Reader) error { return nil }

// EncodeState implements sched.Snapshotter (stateless).
func (*Graphene) EncodeState(*snapshot.Writer) {}

// DecodeState implements sched.Snapshotter (stateless).
func (*Graphene) DecodeState(*snapshot.Reader) error { return nil }

// EncodeState implements sched.Snapshotter (MinGain is configuration).
func (*HyperSched) EncodeState(*snapshot.Writer) {}

// DecodeState implements sched.Snapshotter.
func (*HyperSched) DecodeState(*snapshot.Reader) error { return nil }

// EncodeState implements sched.Snapshotter (stateless).
func (*Gandiva) EncodeState(*snapshot.Writer) {}

// DecodeState implements sched.Snapshotter (stateless).
func (*Gandiva) DecodeState(*snapshot.Reader) error { return nil }

// EncodeState implements sched.Snapshotter. The round skipper is
// derived state: its proof keys on cluster epochs, which a restore
// re-bumps from scratch, so it is dropped rather than persisted.
func (*FIFO) EncodeState(*snapshot.Writer) {}

// DecodeState implements sched.Snapshotter.
func (f *FIFO) DecodeState(*snapshot.Reader) error {
	f.skip.Reset()
	return nil
}

// EncodeState implements sched.Snapshotter (see FIFO: the skipper is
// derived, never persisted).
func (*SRTF) EncodeState(*snapshot.Writer) {}

// DecodeState implements sched.Snapshotter.
func (s *SRTF) DecodeState(*snapshot.Reader) error {
	s.skip.Reset()
	return nil
}

// EncodeState implements sched.Snapshotter: the learner's state.
func (r *RLSched) EncodeState(w *snapshot.Writer) { r.learner.EncodeState(w) }

// DecodeState implements sched.Snapshotter.
func (r *RLSched) DecodeState(rd *snapshot.Reader) error { return r.learner.DecodeState(rd) }
