package sched

import (
	"sort"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
)

// This file is the round machinery: a change journal keyed by per-job
// dedup marks, a sorted pending-jobs list with lazy deletion, and a
// no-fit dominance frontier generalising the underloaded-candidate memo
// to per-shape feasibility. All of it is derived state, so nothing here
// is serialized; snapshot restore calls RebuildRoundState and rebuilds it
// from the restored queue.
//
// What each structure owes, piece by piece:
//
//   - Pending list: a job's task ids form one contiguous block, so
//     ordering jobs by Tasks[0].ID is the same order as by lowest queued
//     task id. Membership transitions are hooked at every queue mutation
//     (Place, Evict, admission, finish, fault park, fault release), so
//     PendingJobs equals a scan of the jobs with a queued task at every
//     round boundary.
//   - Journal: over-delivering dirty jobs is harmless (consumers
//     recompute and land on the same bits); the hooks only need to
//     cover every event that could change what a consumer cached.
//   - No-fit frontier: Cluster.Fits is monotone in (demand, gpuShare) —
//     a task demanding componentwise at least as much as a shape that
//     just failed placement must fail too, as long as the cluster is
//     unchanged (epoch key) and the threshold too (HR key). Only
//     first-task failures are recorded: nothing was placed for them, so
//     the entry describes the cluster as it stands.
//   - Attempt rewind: a partial-gang failure rolls every placement back,
//     and cluster.AbortAttempt verifies the touched servers' load bits
//     returned exactly before rewinding the epochs the attempt bumped.
//     With the rewind, epoch equality keeps witnessing unchanged cluster
//     state across failed attempts — without it, one saturated backlog
//     round would invalidate every epoch-keyed memo tens of thousands of
//     times despite changing nothing.
//
// The frontier is sound (every gang it skips would fail) but a skip is
// not always the same as an attempt. Rolling back a partial placement
// subtracts what Place added, and (x+d)−d need not equal x in floating
// point: the attempt can leave last-bit residue in the load sums, and
// AbortAttempt then refuses the rewind. A skipped gang leaves none, so
// the skips are part of what defines a run's results (DESIGN.md §13
// measures the difference). TestRoundCachesEveryRound (internal/core)
// holds each structure to its obligation on every round.

// Incremental is the opt-in interface for schedulers that consume the
// round change journal. The simulator delivers Dirty(jobs) immediately
// before Schedule each round; jobs holds every job touched by a queue,
// placement, progress-resetting or lifecycle event since the previous
// round (deduplicated, deterministic order). Schedulers use it to
// invalidate per-job cached rankings instead of rebuilding them from
// the whole backlog. Baselines that do not implement it keep their full
// scan and are oblivious to the journal.
type Incremental interface {
	Dirty(jobs []*job.Job)
}

// nofitShape is one first-task demand shape that failed gang placement
// at the keyed (cluster epoch, HR): no underloaded server's least-loaded
// device fit it.
type nofitShape struct {
	demand   cluster.Vec
	gpuShare float64
}

// maxNofitShapes caps the dominance frontier. Failed shapes are
// continuous random draws, so exact-match caching would never hit;
// a small Pareto frontier of minimal failures covers the backlog's
// dominated tail instead.
const maxNofitShapes = 24

// shapeDominates reports big ⊵ small: big demands at least as much of
// every resource and at least as large a GPU share. Fits is monotone
// decreasing in both, so big failing follows from small failing.
func shapeDominates(big, small nofitShape) bool {
	if big.gpuShare < small.gpuShare {
		return false
	}
	for i := range big.demand {
		if big.demand[i] < small.demand[i] {
			return false
		}
	}
	return true
}

// RebuildRoundState rebuilds all round state from the context's
// authoritative views (jobs + waiting queue): every job with a queued
// task re-enters the pending list and the journal, the frontier clears.
// NewContext calls it, and snapshot restore calls it after the queue is
// rebuilt; the pending list it builds is the one an uninterrupted run
// carries, and the journal over-delivers, which is harmless.
func (c *Context) RebuildRoundState() {
	for _, j := range c.pendingList {
		j.InPendingList = false
	}
	c.pendingList = c.pendingList[:0]
	c.pendingLive = 0
	for _, j := range c.dirtyAccum {
		j.DirtyMark = false
	}
	c.dirtyAccum = c.dirtyAccum[:0]
	c.dirtyRound = c.dirtyRound[:0]
	c.nofit = c.nofit[:0]
	c.nofitValid = false
	for _, j := range c.jobs {
		if j.Done() || !c.hasQueuedTask(j) {
			continue
		}
		c.NotePending(j)
		c.MarkDirty(j)
	}
}

// hasQueuedTask scans j's tasks against the waiting queue (seed/rebuild
// path only; steady state uses the maintained InPendingList flag).
func (c *Context) hasQueuedTask(j *job.Job) bool {
	for _, t := range j.Tasks {
		if _, ok := c.waiting[t.ID]; ok {
			return true
		}
	}
	return false
}

// Advance re-primes the reused context for a new round (Reset) and
// swaps the change journal's double buffer: everything journalled since
// the previous Advance becomes RoundDirty(), and the dedup marks are
// cleared so in-round events re-journal the same jobs for the next
// round.
func (c *Context) Advance(now float64, jobs []*job.Job, waiting map[job.TaskID]*job.Task) {
	c.Reset(now, jobs, waiting)
	c.dirtyAccum, c.dirtyRound = c.dirtyRound[:0], c.dirtyAccum
	for _, j := range c.dirtyRound {
		j.DirtyMark = false
	}
}

// RoundDirty returns the jobs journalled as changed since the previous
// round, deduplicated, in journalling order (deterministic: hooks fire
// in simulation order). Valid until the next Advance.
func (c *Context) RoundDirty() []*job.Job { return c.dirtyRound }

// MarkDirty journals j as changed for the next round's delivery.
// Idempotent per round.
func (c *Context) MarkDirty(j *job.Job) {
	if j.DirtyMark {
		return
	}
	j.DirtyMark = true
	c.dirtyAccum = append(c.dirtyAccum, j)
}

// NotePending records that j (re)gained a queued task. The list is kept
// sorted by Tasks[0].ID — equal to PendingJobs' lowest-queued-task-id
// order because a job's task ids are contiguous — with binary-search
// insertion (trace arrivals need not be presorted) and lazy deletion
// (a dropped entry stays until compaction and is revived in place if
// the job re-queues).
func (c *Context) NotePending(j *job.Job) {
	if j.InPendingList {
		return
	}
	key := j.Tasks[0].ID
	i := sort.Search(len(c.pendingList), func(k int) bool {
		return c.pendingList[k].Tasks[0].ID >= key
	})
	if i < len(c.pendingList) && c.pendingList[i] == j {
		j.InPendingList = true
		c.pendingLive++
		return
	}
	c.pendingList = append(c.pendingList, nil)
	copy(c.pendingList[i+1:], c.pendingList[i:])
	c.pendingList[i] = j
	j.InPendingList = true
	c.pendingLive++
}

// DropPending records that j no longer has any queued task (fully
// placed, finished, killed, or parked by fault recovery). Deletion is
// lazy: the entry is compacted away once stale entries outnumber live
// ones, keeping the amortised cost O(1).
func (c *Context) DropPending(j *job.Job) {
	if !j.InPendingList {
		return
	}
	j.InPendingList = false
	c.pendingLive--
	if len(c.pendingList) > 2*c.pendingLive+64 {
		c.compactPending()
	}
}

func (c *Context) compactPending() {
	live := c.pendingList[:0]
	for _, j := range c.pendingList {
		if j.InPendingList {
			live = append(live, j)
		}
	}
	for i := len(live); i < len(c.pendingList); i++ {
		c.pendingList[i] = nil // unpin retired jobs
	}
	c.pendingList = live
}

// nofitSkip reports whether the frontier proves tasks[0] of a gang
// cannot be placed against the current cluster: its shape dominates a
// shape that already failed at the same (epoch, HR).
func (c *Context) nofitSkip(t *job.Task) bool {
	if ep := c.Cluster.Epoch(); !c.nofitValid || c.nofitEpoch != ep || c.nofitHR != c.HR { //mlfs:allow floatcmp frontier key: any HR change, bitwise, must invalidate
		c.nofit = c.nofit[:0]
		c.nofitEpoch, c.nofitHR = ep, c.HR
		c.nofitValid = true
		return false
	}
	probe := nofitShape{t.Demand, t.GPUShare}
	for _, s := range c.nofit {
		if shapeDominates(probe, s) {
			return true
		}
	}
	return false
}

// GangHopeless reports whether the no-fit frontier proves task t cannot
// be hosted anywhere under the current (epoch, HR), so any gang
// containing t must fail. Schedulers may consult it with any queued task
// of a job before paying that job's per-gang ordering work. Skipping
// such a gang places nothing, as the attempt would; but an attempt that
// places other tasks of the gang before reaching t rolls them back and
// can leave last-bit residue in the load sums (see the file comment),
// so a skip is not always bit-identical to an attempt. The proof also
// survives the round it was recorded in — placements only shrink free
// capacity and Fits is monotone in load — so a check made while scoring
// the backlog stays sound when the job's turn comes.
func (c *Context) GangHopeless(t *job.Task) bool { return c.nofitSkip(t) }

// noteNofit records a first-task placement failure. Only called when
// nothing was placed for the gang, so the cluster is the pre-attempt
// cluster and the entry is exact. Entries implied by an
// existing one are not added; entries the new one implies are removed
// (Pareto frontier of minimal failures).
func (c *Context) noteNofit(t *job.Task) {
	if !c.nofitValid {
		return
	}
	if c.nofitEpoch != c.Cluster.Epoch() || c.nofitHR != c.HR { //mlfs:allow floatcmp frontier key: any HR change, bitwise, must invalidate
		return
	}
	probe := nofitShape{t.Demand, t.GPUShare}
	for _, s := range c.nofit {
		if shapeDominates(probe, s) {
			return
		}
	}
	keep := c.nofit[:0]
	for _, s := range c.nofit {
		if !shapeDominates(s, probe) {
			keep = append(keep, s)
		}
	}
	c.nofit = keep
	if len(c.nofit) < maxNofitShapes {
		c.nofit = append(c.nofit, probe)
	}
}

// NoteSkippedRound lets a scheduler report that it proved the round a
// no-op and did not run its decision logic; the simulator reads Skipped
// for the SkippedRounds counter.
func (c *Context) NoteSkippedRound() { c.Skipped = true }

// RoundSkipper is the O(1) empty-round fast path for schedulers whose
// decisions are a pure function of (queue membership, job progress,
// cluster state, HR) — FIFO and SRTF. If nothing was journalled since
// the scheduler last ran, the cluster epoch and HR are unchanged, and
// the last run took no action, then a re-run would reproduce the exact
// same sequence of failed placement attempts and change nothing; the
// scheduler may skip it. Skipping is observation-identical to running,
// so the skipper carries no serialized state — DecodeState just resets
// it (a restored cluster's epoch could coincide with a stale one).
type RoundSkipper struct {
	valid     bool
	sawDirty  bool
	acted     bool
	seenEpoch uint64
	hr        float64
}

// NoteDirty is the scheduler's Dirty hook: any journalled change
// invalidates the skip.
func (s *RoundSkipper) NoteDirty(jobs []*job.Job) {
	if len(jobs) > 0 {
		s.sawDirty = true
	}
}

// CanSkip reports whether this round is provably identical to the
// recorded no-op round.
func (s *RoundSkipper) CanSkip(ctx *Context) bool {
	return s.valid && !s.sawDirty && !s.acted &&
		s.seenEpoch == ctx.Cluster.Epoch() &&
		s.hr == ctx.HR //mlfs:allow floatcmp skip key: any HR change, bitwise, must invalidate
}

// Record captures the post-round state after a real Schedule run.
func (s *RoundSkipper) Record(ctx *Context) {
	s.valid = true
	s.sawDirty = false
	s.seenEpoch = ctx.Cluster.Epoch()
	s.hr = ctx.HR
	s.acted = ctx.Placements+ctx.Migrations+ctx.Evictions > 0 || len(ctx.Stopped) > 0
}

// Reset invalidates the skipper (fresh scheduler or snapshot restore).
func (s *RoundSkipper) Reset() { *s = RoundSkipper{} }
