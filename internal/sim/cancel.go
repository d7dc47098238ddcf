package sim

import (
	"math"
	"slices"
	"sort"

	"mlfs/internal/job"
	"mlfs/internal/snapshot"
)

// This file holds operator cancellation as simulator state. A cancel is
// stamped with the simulation time at which it was acknowledged, and it
// applies at exactly one point of the run, whoever submits it — a live
// host between steps, a host replaying its journal, or a batch run
// replaying a finished one:
//
//   - stamped at or before Now: a live job is cancelled at once; a job
//     not yet admitted is deferred, and cancelled right after the RunStep
//     that admits it (before that step's snapshot cadence write, so no
//     snapshot holds a half-applied step);
//   - stamped after Now: queued, stably by (stamp, call order), and
//     applied at the start of the first RunStep with Now at or past the
//     stamp — never inside a quiescent skip;
//   - a cancel of a job already done is a no-op.
//
// Both queues are part of the snapshot.

// queuedCancel is one cancellation stamped in the simulated future.
type queuedCancel struct {
	simIndex int
	at       float64
}

// CancelAt applies the cancellation of the job with the given SimIndex,
// stamped at simulation time at, under the rules above. An index the
// source has not streamed, or a non-finite stamp (no journal can carry
// one), is ignored.
func (s *Simulator) CancelAt(simIndex int, at float64) {
	if simIndex < 0 || simIndex >= s.cfg.Source.Len() || math.IsNaN(at) || math.IsInf(at, 0) {
		return
	}
	if at <= s.now {
		s.cancelNow(simIndex)
		return
	}
	k := sort.Search(len(s.cancelQueue), func(k int) bool { return s.cancelQueue[k].at > at })
	s.cancelQueue = slices.Insert(s.cancelQueue, k, queuedCancel{simIndex, at})
}

// Job returns the live (admitted, not finalised) job with the given
// SimIndex, or nil. The active set is kept in ascending SimIndex, so
// this is a binary search.
func (s *Simulator) Job(simIndex int) *job.Job {
	k := sort.Search(len(s.active), func(k int) bool { return s.active[k].SimIndex >= simIndex })
	if k < len(s.active) && s.active[k].SimIndex == simIndex {
		return s.active[k]
	}
	return nil
}

// cancelNow applies a cancellation whose stamp the clock has reached.
func (s *Simulator) cancelNow(simIndex int) {
	if simIndex >= s.pending {
		s.cancelDeferred = append(s.cancelDeferred, simIndex)
		return
	}
	if j := s.Job(simIndex); j != nil {
		s.CancelJob(j)
	}
}

// fireDueCancels applies the queued cancellations whose stamp the clock
// has reached, in queue order. RunStep calls it first.
func (s *Simulator) fireDueCancels() {
	n := 0
	for n < len(s.cancelQueue) && s.cancelQueue[n].at <= s.now {
		n++
	}
	if n == 0 {
		return
	}
	for _, c := range s.cancelQueue[:n] {
		s.cancelNow(c.simIndex)
	}
	s.cancelQueue = append(s.cancelQueue[:0], s.cancelQueue[n:]...)
}

// fireAdmittedCancels applies the deferred cancellations whose job has
// now been consumed from the source, in the order they were deferred.
// RunStep calls it after admission and the tick.
func (s *Simulator) fireAdmittedCancels() {
	if len(s.cancelDeferred) == 0 {
		return
	}
	keep := s.cancelDeferred[:0]
	for _, i := range s.cancelDeferred {
		if i >= s.pending {
			keep = append(keep, i)
		} else if j := s.Job(i); j != nil {
			s.CancelJob(j)
		}
	}
	s.cancelDeferred = keep
}

// encodeCancels writes both cancellation queues.
func (s *Simulator) encodeCancels(w *snapshot.Writer) {
	w.Ints(s.cancelDeferred)
	w.Int(len(s.cancelQueue))
	for _, c := range s.cancelQueue {
		w.Int(c.simIndex)
		w.Float64(c.at)
	}
}

// decodeCancels restores both queues, refusing any state CancelAt could
// not have built: a deferred job already consumed or past the workload,
// a queued index outside the workload, a non-finite stamp, or a queue
// out of stamp order.
func (s *Simulator) decodeCancels(r *snapshot.Reader) error {
	deferred := r.Ints()
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	for _, i := range deferred {
		if i < s.pending || i >= s.total {
			return snapshot.Corruptf("deferred cancel of job %d outside the unadmitted range [%d,%d)", i, s.pending, s.total)
		}
	}
	s.cancelDeferred = deferred
	s.cancelQueue = s.cancelQueue[:0]
	for k := 0; k < n; k++ {
		c := queuedCancel{simIndex: r.Int(), at: r.Float64()}
		if err := r.Err(); err != nil {
			return err
		}
		switch {
		case c.simIndex < 0 || c.simIndex >= s.total:
			return snapshot.Corruptf("queued cancel of job %d outside [0,%d)", c.simIndex, s.total)
		case math.IsNaN(c.at) || math.IsInf(c.at, 0):
			return snapshot.Corruptf("queued cancel of job %d stamped %v", c.simIndex, c.at)
		case k > 0 && c.at < s.cancelQueue[k-1].at:
			return snapshot.Corruptf("queued cancel stamped %v follows %v", c.at, s.cancelQueue[k-1].at)
		}
		s.cancelQueue = append(s.cancelQueue, c)
	}
	return nil
}
