package sim

import (
	"fmt"
	"math"
	"sort"

	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// This file is the simulator's crash-consistent snapshot layer. A
// snapshot captures every piece of dynamic state the next tick can read
// — clock and tick cursor, arrival cursor, counters, per-job training
// state, the waiting/active/parked/completed sets, exact cluster load
// accumulators, the fault process RNG positions and the scheduler's own
// state, including the per-job learning-curve noise stream positions —
// and restoring it into a freshly constructed simulator of the same
// configuration continues the run bit-identically to one that was never
// interrupted.
//
// What is deliberately NOT captured: everything recomputable from the
// base state. Static job structure is re-streamed from the same source
// (deterministically); the iteration-cost caches, cache-slot
// assignments, retry-release heap, server utilisation memos and
// Predictor fit memos are dropped and recomputed to the exact same
// float64s; scratch buffers are rebuilt on use. Epoch values after restore differ from the
// original run — they only key caches, which start invalid.
//
// Per-job state is encoded as the retirement tallies plus the live set
// — active jobs and the completed-feedback buffer, parked included
// (parked ⊆ active) — keyed by SimIndex, plus the two cancellation
// queues (cancel.go); only live jobs exist as objects. Restore re-streams the source's first `pending` records to
// rebuild exactly the live jobs (task-identity cursor included) and
// drops the rest as they pass, so restore memory is O(live), not
// O(total). The parked list is encoded with finished-while-parked jobs
// filtered out, because the tick at which those are pruned is the one
// roster detail the sparse retry gate shifts; filtering makes equal
// states encode to equal bytes in both tick modes.

// Snapshot serialises the full dynamic state. It fails only when the
// scheduler does not implement sched.Snapshotter.
func (s *Simulator) Snapshot() ([]byte, error) {
	snapper, ok := s.sched.(sched.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: scheduler %q does not implement sched.Snapshotter", s.sched.Name())
	}
	w := snapshot.NewWriter()
	s.encodeFingerprint(w)
	w.Float64(s.now)
	w.Int(s.tick)
	w.Int(s.pending)
	w.Float64(s.lastBWMark)
	s.counters.EncodeState(w)
	w.Int(len(s.tallies))
	for i := range s.tallies {
		encodeTally(w, &s.tallies[i])
	}
	live := s.liveJobs()
	w.Int(len(live))
	for _, j := range live {
		w.Int(j.SimIndex)
	}
	for _, j := range live {
		encodeJob(w, j)
	}
	encodeJobList(w, s.active)
	encodeJobList(w, s.livingParked())
	encodeJobList(w, s.recentCompleted)
	s.encodeCancels(w)
	// Waiting-set membership only, in sorted task-id order: schedulers
	// consume the queue through the sorted Context.Waiting() accessor, so
	// map insertion order carries no information (proven by the
	// insertion-order determinism test), and sorting makes equal states
	// encode to identical bytes.
	ids := make([]int64, 0, len(s.waiting))
	for id := range s.waiting {
		ids = append(ids, int64(id))
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	w.Int(len(ids))
	for _, id := range ids {
		w.Int64(id)
	}
	s.cl.EncodeState(w)
	w.Bool(s.faults != nil)
	if s.faults != nil {
		s.faults.EncodeState(w)
	}
	snapper.EncodeState(w)
	return w.Bytes(), nil
}

// liveJobs returns the jobs whose state must be encoded individually:
// the active set plus the completed-feedback buffer. The two are
// disjoint (completed jobs are Done and pruned from active), and parked
// jobs are already in active.
func (s *Simulator) liveJobs() []*job.Job {
	live := make([]*job.Job, 0, len(s.active)+len(s.recentCompleted))
	live = append(live, s.active...)
	live = append(live, s.recentCompleted...)
	return live
}

// livingParked filters finished jobs out of the parked list for
// encoding (see the file comment).
func (s *Simulator) livingParked() []*job.Job {
	out := s.parkedScratch[:0]
	for _, j := range s.parked {
		if !j.Done() {
			out = append(out, j)
		}
	}
	s.parkedScratch = out
	return out
}

// Restore overlays a Snapshot payload onto a freshly constructed,
// never-stepped simulator whose Config matches the snapshotted run
// (same source, cluster, scheduler and simulation parameters —
// DenseTicks, FullRescan and snapshot/stop settings are free to differ;
// results are bit-identical in either tick mode). On any error — ErrMismatch for a snapshot of a different
// run, ErrCorrupt for undecodable bytes — the simulator is left
// partially overwritten and must be discarded.
func (s *Simulator) Restore(payload []byte) error {
	snapper, ok := s.sched.(sched.Snapshotter)
	if !ok {
		return fmt.Errorf("sim: scheduler %q does not implement sched.Snapshotter", s.sched.Name())
	}
	r := snapshot.NewReader(payload)
	if err := s.checkFingerprint(r); err != nil {
		return err
	}
	s.now = r.Float64()
	s.tick = r.Int()
	s.pending = r.Int()
	s.lastBWMark = r.Float64()
	if err := s.counters.DecodeState(r); err != nil {
		return err
	}
	if s.tick < 0 || s.pending < 0 || s.pending > s.total {
		return snapshot.Corruptf("cursor out of range: tick %d, pending %d of %d jobs", s.tick, s.pending, s.total)
	}
	byIndex, err := s.restoreLiveJobs(r)
	if err != nil {
		return err
	}
	if s.active, err = decodeJobList(r, s.active, byIndex); err != nil {
		return err
	}
	if s.parked, err = decodeJobList(r, s.parked, byIndex); err != nil {
		return err
	}
	if s.recentCompleted, err = decodeJobList(r, s.recentCompleted, byIndex); err != nil {
		return err
	}
	// Job binary-searches the active set, which admission keeps in
	// ascending SimIndex.
	for k := 1; k < len(s.active); k++ {
		if s.active[k].SimIndex <= s.active[k-1].SimIndex {
			return snapshot.Corruptf("active job %d follows %d", s.active[k].SimIndex, s.active[k-1].SimIndex)
		}
	}
	if err := s.decodeCancels(r); err != nil {
		return err
	}
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	clear(s.waiting)
	for i := 0; i < n; i++ {
		id := job.TaskID(r.Int64())
		if err := r.Err(); err != nil {
			return err
		}
		t := s.ctx.TaskByRef(id.Ref())
		if t == nil {
			return snapshot.Corruptf("waiting task %d is not part of this run", id)
		}
		s.waiting[t.ID] = t
	}
	if err := s.cl.RestoreState(r); err != nil {
		return err
	}
	hasFaults := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasFaults != (s.faults != nil) {
		return snapshot.Mismatchf("snapshot fault injection %v, config %v", hasFaults, s.faults != nil)
	}
	if s.faults != nil {
		if err := s.faults.DecodeState(r); err != nil {
			return err
		}
	}
	if err := snapper.DecodeState(r); err != nil {
		return err
	}
	if err := r.Finish(); err != nil {
		return err
	}
	// Rebuild the derived structures the snapshot deliberately omits:
	// cache slots for the restored active set (fixed in dense mode;
	// otherwise assigned here in active order) and, in sparse mode, the
	// retry-release heap, one entry per parked job at its exact release
	// time.
	for _, j := range s.active {
		s.assignSlot(j)
	}
	if !s.cfg.DenseTicks {
		s.retryHeap = s.retryHeap[:0]
		for _, j := range s.parked {
			s.pushRetry(j.NextRetryAt)
		}
	}
	// Settle the placed-task counts from the restored cluster state.
	for _, j := range s.active {
		placed := 0
		for _, t := range j.Tasks {
			if s.cl.Lookup(t.ID.Ref()) != nil {
				placed++
			}
		}
		j.PlacedTasks = placed
	}
	// Rebuild the derived incremental-round state from the restored
	// queue: Reset points the context at the restored views, then
	// ResetIncremental re-seeds the pending list and journals every
	// pending job as dirty — over-invalidation that is harmless by the
	// journal contract (the freshly restored schedulers carry no warm
	// caches to invalidate anyway, their DecodeState cleared them).
	if s.ctx.Incremental() {
		s.ctx.Reset(s.now, s.active, s.waiting)
		s.ctx.ResetIncremental()
	}
	return nil
}

// restoreLiveJobs rebuilds the live set: it decodes the tallies and
// live-index list, then re-streams the source's consumed
// prefix — materialising every record to advance the task-identity
// cursor exactly as the original run did, keeping only the live indexes
// and letting the rest go — and finally decodes each live job's dynamic
// state. Returns the SimIndex → job map for decodeJobList.
func (s *Simulator) restoreLiveJobs(r *snapshot.Reader) (map[int]*job.Job, error) {
	nt := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A retired job has been consumed, and retires once: a tally outside
	// [0, pending) or a repeated one would skew every aggregate.
	retired := make([]bool, s.pending)
	s.tallies = s.tallies[:0]
	for i := 0; i < nt; i++ {
		t, err := decodeTally(r)
		if err != nil {
			return nil, err
		}
		if t.SimIndex < 0 || t.SimIndex >= s.pending {
			return nil, snapshot.Corruptf("tally job index %d out of range [0,%d)", t.SimIndex, s.pending)
		}
		if retired[t.SimIndex] {
			return nil, snapshot.Corruptf("tally job index %d repeated", t.SimIndex)
		}
		retired[t.SimIndex] = true
		s.tallies = append(s.tallies, t)
	}
	nl := r.Len()
	if err := r.Err(); err != nil {
		return nil, err
	}
	liveSet := make(map[int]bool, nl)
	liveOrder := make([]int, 0, nl)
	for i := 0; i < nl; i++ {
		idx := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if idx < 0 || idx >= s.pending {
			return nil, snapshot.Corruptf("live job index %d out of range [0,%d)", idx, s.pending)
		}
		if liveSet[idx] {
			return nil, snapshot.Corruptf("live job index %d repeated", idx)
		}
		liveSet[idx] = true
		liveOrder = append(liveOrder, idx)
	}
	s.cfg.Source.Reset()
	s.nextTaskID = 0
	s.lastArrival = 0
	s.srcHave = false
	byIndex := make(map[int]*job.Job, nl)
	for i := 0; i < s.pending; i++ {
		rec, ok := s.cfg.Source.Next()
		if !ok {
			return nil, snapshot.Corruptf("source ended at record %d, snapshot consumed %d", i, s.pending)
		}
		j, err := trace.Materialize(rec, &s.nextTaskID)
		if err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", rec.JobID, err)
		}
		s.lastArrival = rec.ArrivalSec
		if !liveSet[i] {
			continue
		}
		j.SimIndex = i
		j.SimSlot = -1
		byIndex[i] = j
		s.ctx.AddJob(j)
	}
	for _, idx := range liveOrder {
		if err := decodeJob(r, byIndex[idx]); err != nil {
			return nil, err
		}
	}
	return byIndex, nil
}

// writeSnapshot persists the current state to cfg.SnapshotPath.
func (s *Simulator) writeSnapshot() error {
	payload, err := s.Snapshot()
	if err != nil {
		return err
	}
	return snapshot.WriteFile(s.cfg.SnapshotPath, payload)
}

// fingerprintFloats are the run parameters a resumed simulation must
// reproduce exactly for bit-identity to hold. Compared bit-for-bit on
// restore.
func (s *Simulator) fingerprintFloats() []float64 {
	c := &s.cfg
	f := c.Failures
	return []float64{
		c.TickSec, c.HR, c.HS, c.FlowMBps,
		c.DemandWobble, c.WobblePeriodSec, c.MaxSimSec,
		c.StragglerProb, c.StragglerSlow,
		f.MTTFSec, f.MTTRSec, float64(f.CheckpointEveryIters),
		float64(f.MaxRetries), f.RetryBackoffSec, float64(f.Seed),
	}
}

// encodeFingerprint writes the run identity the snapshot belongs to.
func (s *Simulator) encodeFingerprint(w *snapshot.Writer) {
	w.String(s.sched.Name())
	w.Int(s.total)
	w.Int(s.cl.NumServers())
	w.Int(s.cl.NumGPUs())
	w.Bool(s.cfg.ReplicateStragglers)
	w.Floats(s.fingerprintFloats())
}

// checkFingerprint validates the snapshot against this simulator's run
// configuration, returning ErrMismatch with a pointed message on any
// difference.
func (s *Simulator) checkFingerprint(r *snapshot.Reader) error {
	name := r.String()
	jobs := r.Int()
	servers := r.Int()
	gpus := r.Int()
	replicate := r.Bool()
	params := r.Floats()
	if err := r.Err(); err != nil {
		return err
	}
	if name != s.sched.Name() {
		return snapshot.Mismatchf("snapshot is of scheduler %q, run uses %q", name, s.sched.Name())
	}
	if jobs != s.total || servers != s.cl.NumServers() || gpus != s.cl.NumGPUs() {
		return snapshot.Mismatchf("snapshot is of %d jobs on %d servers/%d GPUs, run has %d/%d/%d",
			jobs, servers, gpus, s.total, s.cl.NumServers(), s.cl.NumGPUs())
	}
	if replicate != s.cfg.ReplicateStragglers {
		return snapshot.Mismatchf("snapshot straggler replication %v, run %v", replicate, s.cfg.ReplicateStragglers)
	}
	want := s.fingerprintFloats()
	if len(params) != len(want) {
		return snapshot.Mismatchf("snapshot has %d run parameters, this build expects %d", len(params), len(want))
	}
	for i, v := range want {
		// Exact bit comparison: any drift in a run parameter breaks the
		// bit-identical-resume contract, so close is not good enough.
		if math.Float64bits(params[i]) != math.Float64bits(v) {
			return snapshot.Mismatchf("run parameter %d differs: snapshot %v, run %v", i, params[i], v)
		}
	}
	return nil
}

// encodeJob writes one job's dynamic state. Static structure (tasks,
// demands, curve, estimated runtime, deadlines) is re-materialised from
// the source and not written; SimSlot and PlacedTasks are
// derived state, reassigned and recounted on restore.
func encodeJob(w *snapshot.Writer, j *job.Job) {
	w.Int(int(j.State))
	w.Float64(j.Progress)
	w.Float64(j.FinishTime)
	w.Float64(j.WaitingTime)
	w.Float64(j.AccuracyAtDeadline)
	w.Bool(j.DeadlineSnapped)
	w.Bool(j.EverPlaced)
	w.Float64(j.CheckpointProgress)
	w.Int(j.Retries)
	w.Float64(j.NextRetryAt)
	iters, accs := j.Predictor.Observations()
	w.Ints(iters)
	w.Floats(accs)
	// The curve's parameters are re-materialised from the source, but its
	// observation-noise stream position is runtime state: without it a
	// resumed job would replay noise the uninterrupted run already drew.
	w.Uint64(j.Curve.NoiseDraws())
	for _, t := range j.Tasks {
		w.Float64(t.QueuedAt)
	}
}

// decodeJob restores one job's dynamic state.
func decodeJob(r *snapshot.Reader, j *job.Job) error {
	state := r.Int()
	progress := r.Float64()
	finishTime := r.Float64()
	waitingTime := r.Float64()
	accAtDeadline := r.Float64()
	deadlineSnapped := r.Bool()
	everPlaced := r.Bool()
	checkpoint := r.Float64()
	retries := r.Int()
	nextRetryAt := r.Float64()
	iters := r.Ints()
	accs := r.Floats()
	noiseDraws := r.Uint64()
	if err := r.Err(); err != nil {
		return err
	}
	if state < int(job.Pending) || state > int(job.Killed) {
		return snapshot.Corruptf("job %d has state %d", j.ID, state)
	}
	if len(iters) != len(accs) {
		return snapshot.Corruptf("job %d has %d curve iterations but %d accuracies", j.ID, len(iters), len(accs))
	}
	// The series is what Predictor.Observe builds from clamped
	// ObservedAccuracy values: strictly increasing iterations, each
	// accuracy in [0, 1].
	for k, acc := range accs {
		if k > 0 && iters[k] <= iters[k-1] {
			return snapshot.Corruptf("job %d curve iteration %d does not follow %d", j.ID, iters[k], iters[k-1])
		}
		if !(acc >= 0 && acc <= 1) {
			return snapshot.Corruptf("job %d curve accuracy %v is outside [0, 1]", j.ID, acc)
		}
	}
	j.State = job.State(state)
	j.Progress = progress
	j.FinishTime = finishTime
	j.WaitingTime = waitingTime
	j.AccuracyAtDeadline = accAtDeadline
	j.DeadlineSnapped = deadlineSnapped
	j.EverPlaced = everPlaced
	j.CheckpointProgress = checkpoint
	j.Retries = retries
	j.NextRetryAt = nextRetryAt
	j.Predictor.SetObservations(iters, accs)
	j.Curve.ReplayNoise(noiseDraws)
	for _, t := range j.Tasks {
		t.QueuedAt = r.Float64()
	}
	return r.Err()
}

// encodeTally writes one retired job's metrics contribution.
func encodeTally(w *snapshot.Writer, t *metrics.Tally) {
	w.Int(t.SimIndex)
	w.Float64(t.JCT)
	w.Float64(t.Wait)
	w.Float64(t.Acc)
	w.Float64(t.Arrival)
	w.Float64(t.Finish)
	w.Bool(t.DeadlineMet)
	w.Bool(t.AccMet)
	w.Bool(t.Urgent)
	w.Int(int(t.State))
}

// decodeTally reads one retired job's metrics contribution.
func decodeTally(r *snapshot.Reader) (metrics.Tally, error) {
	t := metrics.Tally{
		SimIndex: r.Int(),
		JCT:      r.Float64(),
		Wait:     r.Float64(),
		Acc:      r.Float64(),
		Arrival:  r.Float64(),
		Finish:   r.Float64(),
	}
	t.DeadlineMet = r.Bool()
	t.AccMet = r.Bool()
	t.Urgent = r.Bool()
	state := job.State(r.Int())
	if err := r.Err(); err != nil {
		return t, err
	}
	if state != job.Finished && state != job.Stopped && state != job.Killed {
		return t, snapshot.Corruptf("tally of job %d has non-terminal state %d", t.SimIndex, state)
	}
	t.State = uint8(state)
	return t, nil
}

// encodeJobList writes an ordered job set as SimIndexes (order matters:
// parked order is failure-event order, completed order is finish order).
func encodeJobList(w *snapshot.Writer, jobs []*job.Job) {
	w.Int(len(jobs))
	for _, j := range jobs {
		w.Int(j.SimIndex)
	}
}

// decodeJobList reads an ordered job set into dst, resolving each index
// against the restored live set.
func decodeJobList(r *snapshot.Reader, dst []*job.Job, byIndex map[int]*job.Job) ([]*job.Job, error) {
	n := r.Len()
	if err := r.Err(); err != nil {
		return dst, err
	}
	dst = dst[:0]
	seen := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		idx := r.Int()
		if err := r.Err(); err != nil {
			return dst, err
		}
		if seen[idx] {
			return dst, snapshot.Corruptf("job index %d repeated", idx)
		}
		seen[idx] = true
		j := byIndex[idx]
		if j == nil {
			return dst, snapshot.Corruptf("job index %d out of range", idx)
		}
		dst = append(dst, j)
	}
	return dst, nil
}
