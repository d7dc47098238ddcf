package sim

import (
	"math"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
)

// FailureConfig enables fault injection: seeded exponential server
// failure/repair processes, checkpoint/restart recovery and a per-job
// retry budget. The zero value disables injection entirely — the
// simulator then behaves bit-identically to a build without this
// subsystem, and the tick loop stays allocation-free.
//
// The config lives outside any scheduler so that every policy in a
// comparison runs under the identical failure trace: the event sequence
// is a pure function of (Seed, server count, MTTFSec, MTTRSec).
//
// Zero-value convention: in an enabled config (MTTFSec > 0) every other
// field treats its zero value as "use the documented default", so a
// partially filled struct always yields a sane failure model. MaxRetries
// uses a negative sentinel to express "no retries" (see its comment);
// the other defaults have no meaningful zero to preserve.
type FailureConfig struct {
	// MTTFSec is the per-server mean time to failure in seconds
	// (exponential). 0 disables fault injection.
	MTTFSec float64
	// MTTRSec is the per-server mean time to repair in seconds
	// (exponential). ≤0 means the default of 600 — Philly repairs are
	// minutes-scale.
	MTTRSec float64
	// CheckpointEveryIters is K: jobs checkpoint every K completed
	// iterations, so a failure replays at most K−1 completed iterations.
	// ≤0 means the default of 100.
	CheckpointEveryIters int
	// MaxRetries is the per-job retry budget: a job hit by more than
	// MaxRetries failures is Killed. 0 means the default of 3 (Philly's
	// typical retry policy); any negative value means a budget of zero —
	// the first failure kills the job.
	MaxRetries int
	// RetryBackoffSec is the base restart delay; retry r waits
	// RetryBackoffSec·2^(r−1) before its tasks re-enter the queue.
	// ≤0 means the default of 60 — one scheduling tick. The resolved
	// value is always positive; failJob and handleEvictions rely on that
	// (NextRetryAt strictly exceeds the failure time).
	RetryBackoffSec float64
	// Seed drives the failure/repair processes. 0 means the default seed
	// of 1; pick any other value for an independent failure trace.
	Seed int64
}

// Enabled reports whether fault injection is on.
func (f FailureConfig) Enabled() bool { return f.MTTFSec > 0 }

// withDefaults fills the paper-calibrated defaults for enabled configs.
func (f FailureConfig) withDefaults() FailureConfig {
	if f.MTTRSec <= 0 {
		f.MTTRSec = 600
	}
	if f.CheckpointEveryIters <= 0 {
		f.CheckpointEveryIters = 100
	}
	switch {
	case f.MaxRetries == 0:
		f.MaxRetries = 3
	case f.MaxRetries < 0: // sentinel: kill on the first failure
		f.MaxRetries = 0
	}
	if f.RetryBackoffSec <= 0 {
		f.RetryBackoffSec = 60
	}
	if f.Seed == 0 {
		f.Seed = 1
	}
	return f
}

// injectFailures applies every failure/repair event due by the current
// tick start. It runs before the scheduling round, so advance() only
// ever sees post-event cluster state.
func (s *Simulator) injectFailures() {
	for {
		srv, down, _, ok := s.faults.Next(s.now)
		if !ok {
			return
		}
		if !down {
			s.counters.ServerRepairs++
			s.cl.RepairServer(srv)
			continue
		}
		s.counters.ServerFailures++
		evicted := s.cl.FailServer(srv)
		s.counters.FailureEvictions += len(evicted)
		// FailServer removed the placements behind the context's back;
		// settle the per-job placed-task counts before any gated path
		// (wobble, prepare) can read them.
		for _, p := range evicted {
			if t := s.ctx.TaskByRef(p.Task); t != nil {
				t.Job.PlacedTasks--
			}
		}
		s.handleEvictions(evicted)
	}
}

// handleEvictions routes each job hit by one failure event through
// failJob exactly once. FailServer returns one placement per evicted
// task, and evicted is a pre-eviction snapshot, so a job with several
// tasks co-located on the failed server appears several times here —
// without dedup it would be charged multiple retries (and multiplied
// backoff, and duplicate parking) for a single failure. The first
// failJob call either kills the job (Done) or parks it with
// NextRetryAt = now + backoff > now; nothing else ever sets NextRetryAt
// above the current time (released jobs carry a stale NextRetryAt ≤
// now, and still-parked jobs hold no placements so they cannot be
// evicted), so NextRetryAt > now marks exactly the jobs already failed
// at this instant.
func (s *Simulator) handleEvictions(evicted []*cluster.Placement) {
	for _, p := range evicted {
		t := s.ctx.TaskByRef(p.Task)
		if t == nil || t.Job.Done() || t.Job.NextRetryAt > s.now {
			continue
		}
		s.failJob(t.Job)
	}
}

// failJob is the recovery path for a job that lost at least one task to
// a server failure: synchronous training cannot proceed without the
// lost partition, so the whole job rolls back to its last checkpoint,
// releases every remaining placement, and either retries (after
// exponential backoff) or is Killed once the retry budget is spent.
func (s *Simulator) failJob(j *job.Job) {
	lost := j.Progress - j.CheckpointProgress
	if lost > 0 {
		s.counters.WorkLostIters += lost
		j.Progress = j.CheckpointProgress
	}
	// Release surviving placements and pull queued tasks: nothing of
	// this job may run or be scheduled until the backoff expires.
	for _, t := range j.Tasks {
		if s.cl.Remove(t.ID.Ref()) != nil {
			j.PlacedTasks--
		}
		delete(s.waiting, t.ID)
	}
	// The job leaves the pending set (nothing queued while parked) and is
	// journalled: its progress rollback and cleared queue membership
	// invalidate whatever rankings a scheduler cached for it.
	s.ctx.DropPending(j)
	s.ctx.MarkDirty(j)
	if j.SimSlot >= 0 {
		s.cache[j.SimSlot].valid = false
	}
	j.Retries++
	if j.Retries > s.cfg.Failures.MaxRetries {
		s.counters.JobsKilled++
		// Like admission rejection, a kill charges the job's full wait:
		// JCT runs to at least the deadline, so abandoning jobs can only
		// hurt a scheduler's numbers, never flatter them.
		s.finishJob(j, math.Max(s.now, j.Deadline), job.Killed)
		return
	}
	s.counters.JobRestarts++
	backoff := s.cfg.Failures.RetryBackoffSec * math.Pow(2, float64(j.Retries-1))
	j.NextRetryAt = s.now + backoff
	s.parked = append(s.parked, j)
	s.pushRetry(j.NextRetryAt)
}

// releaseParked re-queues the tasks of parked jobs whose backoff has
// expired. Parked order is the (deterministic) failure-event order, so
// re-queue order is reproducible too. The scan is gated by the retry
// min-heap: until the earliest pending release falls due the whole call
// is one comparison. A release is never late — a parked job's
// NextRetryAt cannot change while parked (it holds no placements, so it
// cannot fail again), so its heap entry is exact; TestHotSetInvariants
// checks that after every tick. The only side effect the gate defers is
// dropping jobs finished while parked (stopped by a load controller);
// they are pruned at the next fired scan instead of the next tick,
// which no observable state depends on — snapshots encode the parked
// list with finished jobs filtered out for exactly this reason.
func (s *Simulator) releaseParked() {
	if len(s.parked) == 0 {
		return
	}
	if len(s.retryHeap) == 0 || s.retryHeap[0] > s.now {
		return
	}
	for len(s.retryHeap) > 0 && s.retryHeap[0] <= s.now {
		s.popRetry()
	}
	keep := s.parked[:0]
	for _, j := range s.parked {
		if j.Done() { // killed or truncated while parked
			continue
		}
		if j.NextRetryAt > s.now {
			keep = append(keep, j)
			continue
		}
		for _, t := range j.Tasks {
			t.QueuedAt = s.now
			s.waiting[t.ID] = t
		}
		s.ctx.NotePending(j)
		s.ctx.MarkDirty(j)
	}
	s.parked = keep
}

// checkpointJob advances j's durable checkpoint to the last multiple of
// K at or below its progress. Called from advance() only when fault
// injection is enabled, so the disabled path
// never touches the field.
func (s *Simulator) checkpointJob(j *job.Job) {
	k := float64(s.cfg.Failures.CheckpointEveryIters)
	ck := math.Floor(j.Progress/k) * k
	if ck > j.CheckpointProgress {
		j.CheckpointProgress = ck
	}
}
