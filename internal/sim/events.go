package sim

import "math"

// This file is the event-driven view of the run loop. The simulator is
// tick-stepped while anything is live — per-tick semantics (one
// scheduling round per tick, per-tick demand wobble, per-tick progress
// accrual in float64) are observable, so skipping ticks under live jobs
// cannot be bit-identical — but between live periods it is event-driven:
// Run consults the next-event horizon and jumps straight to the tick
// containing the next event, executing no quiescent ticks at all.
//
// The horizon is the minimum over the event sources that can make a
// future tick non-quiescent:
//
//   - next scheduler re-evaluation point: now + TickSec whenever any job
//     is active. This bounds every other live-period event — iteration
//     completions, checkpoint snaps and deadline snapshots only
//     materialise when a tick executes, and the next tick executes
//     immediately.
//   - next retry-backoff release: parked jobs are a subset of the active
//     set (a parked job is not Done, so pruneActive keeps it), and the
//     subset is empty whenever active is empty — the release term is
//     therefore already covered by the re-evaluation term and never
//     extends the horizon on its own. Within live periods the pending
//     releases are tracked in a min-heap (retryHeap) so the per-tick
//     release scan is skipped in O(1) until the earliest backoff expires.
//   - next admission arrival: the head of the un-admitted source
//     stream, the only event source that can wake an idle simulator.
//   - next fault/repair event: provably inert while idle, and pruned
//     from the horizon. The tick loop batch-applies every fault event
//     due at or before tick start (injectFailures drains Next(now)), so
//     an event firing inside an idle gap is applied — with identical
//     effect — at the next executed tick: a failure evicts nothing (no
//     placements exist when no job is active) and parks nothing (parked
//     ⊆ active = ∅), a repair only flips a server back up, and the
//     failure/repair counters count drained events independently of
//     when they are drained. A dense run that executed every idle tick
//     would apply the same events to the same empty cluster state.
//
// Jumping the clock therefore never changes observable state; it only
// removes ticks in which nothing could have happened. This holds in
// both modes, which is why DenseTicks and the default sparse mode share
// this one loop and stay bit-identical (DenseTicks instead disables the
// hot-set optimisations: slot-recycled caches, retirement, gated scans).

// HasPendingEvents reports whether anything can still happen: a job is
// active (placed or queued, parked included) or arrivals remain.
func (s *Simulator) HasPendingEvents() bool {
	if len(s.active) > 0 {
		return true
	}
	_, ok := s.peekArrival()
	return ok
}

// PeekNextEventTime returns the absolute sim-time of the next event on
// the horizon. With active jobs that is the next scheduler
// re-evaluation point (now + TickSec), which bounds every live-period
// event; when idle it is the next admission arrival. ok is false when
// no events remain (the run is complete).
func (s *Simulator) PeekNextEventTime() (at float64, ok bool) {
	if len(s.active) > 0 {
		return s.now + s.cfg.TickSec, true
	}
	return s.peekArrival()
}

// AdvanceTo jumps the clock to the start of the tick containing t (the
// greatest tick boundary at or below t), never moving backwards. Run
// calls it only when the horizon proves every skipped tick quiescent.
func (s *Simulator) AdvanceTo(t float64) {
	if g := math.Floor(t/s.cfg.TickSec) * s.cfg.TickSec; g > s.now {
		s.now = g
	}
}

// retryHeap is a min-heap of pending retry-release times, one entry per
// park event. It gates the per-tick release scan in sparse mode: until
// the heap minimum falls due, releaseParked returns after one
// comparison instead of walking the parked list. Entries are removed
// lazily — a job finished while parked leaves its entry behind, which
// at worst triggers one spurious (and effect-free) scan when it falls
// due. The heap is derived state: snapshots never encode it, and
// Restore rebuilds it from the decoded parked list.

// pushRetry inserts a release time.
func (s *Simulator) pushRetry(at float64) {
	h := append(s.retryHeap, at)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.retryHeap = h
}

// popRetry removes the minimum release time.
func (s *Simulator) popRetry() {
	h := s.retryHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l] < h[min] {
			min = l
		}
		if r < n && h[r] < h[min] {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	s.retryHeap = h
}
