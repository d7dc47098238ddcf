package core

import "mlfs/internal/snapshot"

// EncodeState implements sched.Snapshotter. MLF-H carries no state
// across rounds: its struct fields are configuration fixed at
// construction or per-round scratch, so nothing needs to be persisted.
func (*MLFH) EncodeState(*snapshot.Writer) {}

// DecodeState implements sched.Snapshotter. The priority-engine cache
// is derived state keyed on recycled simulator slots, so a restored run
// starts it empty rather than trusting entries from the pre-snapshot
// lineage.
func (m *MLFH) DecodeState(*snapshot.Reader) error {
	m.eng = nil
	return nil
}
