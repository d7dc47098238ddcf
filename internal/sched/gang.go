package sched

import (
	"cmp"
	"slices"

	"mlfs/internal/job"
)

// ServerChooser picks a (server, device) for one task given the candidate
// underloaded servers, or ok=false when no candidate can host it. It is
// consulted task-by-task while a gang placement is being built, so it
// observes the partial placements of earlier tasks of the same job.
//
// Contract: a chooser must return ok=false exactly when no candidate's
// least-loaded device passes Cluster.Fits for the task — a test that is
// monotone in (demand, GPU share). The no-fit frontier relies on this
// to skip gangs whose first task dominates a recorded failure (see
// incremental.go); every chooser in the repo satisfies it.
type ServerChooser func(ctx *Context, t *job.Task, candidates []int) (server, device int, ok bool)

// underloadedCandidates returns the underloaded-server set for the
// current HR, memoised by cluster epoch. Every cluster mutation bumps
// the epoch, so a hit is exactly the set a fresh scan would produce;
// choosers receive the shared scratch slice and must not mutate it
// (FirstFit and LeastLoadedFit read it; policy choosers copy before
// filtering or sorting).
func (c *Context) underloadedCandidates() []int {
	ep := c.Cluster.Epoch()
	if c.candValid && c.candEpoch == ep && c.candHR == c.HR { //mlfs:allow floatcmp memo key: any HR change, bitwise, must invalidate
		return c.candScratch
	}
	c.candScratch = c.Cluster.AppendUnderloaded(c.candScratch[:0], c.HR)
	c.candEpoch = ep
	c.candHR = c.HR
	c.candValid = true
	return c.candScratch
}

// PlaceGang places all given queued tasks using choose, or none: if any
// task cannot be hosted, every placement already made for the gang is
// removed again. It returns true when the whole gang was placed. The
// removal restores the queue and the placement index exactly, but the
// servers' load sums only up to last-bit residue: Remove subtracts what
// Place added, and (x+d)−d need not equal x. The attempt log detects
// that case (see cluster.AttemptLog) and keeps the epochs bumped.
//
// Jobs train synchronously (see DESIGN.md): an iteration needs every task
// of the job, so placing a strict subset wastes GPUs without progress.
// All schedulers therefore place at job granularity, while their policies
// differ in *ordering* (which job goes first) and *server choice* — the
// dimensions the paper's comparisons exercise.
func (c *Context) PlaceGang(tasks []*job.Task, choose ServerChooser) bool {
	if len(tasks) > 0 && c.nofitSkip(tasks[0]) {
		// The frontier proves the first task cannot be hosted against
		// the current cluster; the attempt would fail before placing
		// anything.
		return false
	}
	// The partial-gang list lives in a context scratch buffer: a backlog
	// scan calls PlaceGang once per pending job, and the failure path
	// must not allocate.
	placed := c.gangScratch[:0]
	c.Cluster.BeginAttempt(&c.attempt)
	rollback := func() bool {
		for _, t := range placed {
			c.Cluster.Remove(t.ID.Ref())
			c.waiting[t.ID] = t
			t.Job.PlacedTasks--
			c.Placements--
		}
		// When the rollback restored every touched load bit, the failed
		// attempt is a true no-op and the epochs it bumped are rewound,
		// so the pre-attempt memos (candidates, no-fit frontier) stay
		// valid. A memo the attempt itself wrote at a transient epoch
		// must not survive the rewind — AbortAttempt invalidates the
		// cluster-side caches, the candidates memo is ours. When a bit
		// differs (last-bit residue of (x+d)−d), the epochs stay bumped
		// and every memo misses.
		if len(placed) > 0 && c.Cluster.AbortAttempt(&c.attempt) &&
			c.candValid && c.candEpoch != c.Cluster.Epoch() {
			c.candValid = false
		}
		c.gangScratch = placed[:0]
		return false
	}
	for _, t := range tasks {
		cand := c.underloadedCandidates()
		if len(cand) == 0 {
			if len(placed) == 0 {
				c.noteNofit(t)
			}
			return rollback()
		}
		server, device, ok := choose(c, t, cand)
		if !ok {
			if len(placed) == 0 {
				c.noteNofit(t)
			}
			return rollback()
		}
		c.Cluster.NoteAttemptTarget(&c.attempt, server, device)
		if err := c.Place(t, server, device); err != nil {
			return rollback()
		}
		placed = append(placed, t)
	}
	c.gangScratch = placed[:0]
	return true
}

// FirstFit is the baseline ServerChooser: the first underloaded server
// (lowest index) whose least-loaded device keeps every resource at or
// below h_r after hosting t.
func FirstFit(ctx *Context, t *job.Task, candidates []int) (int, int, bool) {
	for _, si := range candidates {
		s := ctx.Cluster.Server(si)
		d := s.LeastLoadedDevice()
		if ctx.Cluster.Fits(si, d.ID(), t.Demand, t.GPUShare, ctx.HR) {
			return si, d.ID(), true
		}
	}
	return 0, 0, false
}

// LeastLoadedFit chooses the underloaded server with the lowest overload
// degree that fits t (used by utilisation-spreading baselines).
func LeastLoadedFit(ctx *Context, t *job.Task, candidates []int) (int, int, bool) {
	best, bestDeg, found := 0, 0.0, false
	for _, si := range candidates {
		s := ctx.Cluster.Server(si)
		d := s.LeastLoadedDevice()
		if !ctx.Cluster.Fits(si, d.ID(), t.Demand, t.GPUShare, ctx.HR) {
			continue
		}
		deg := s.OverloadDegree()
		if !found || deg < bestDeg {
			best, bestDeg, found = si, deg, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return best, ctx.Cluster.Server(best).LeastLoadedDevice().ID(), true
}

// FitShortlist writes into dst the candidates whose least-loaded device
// can host t (FirstFit's check) and returns them. When more than max
// fit, it keeps the max least overloaded, in order of overload degree,
// ties by server index. The learned choosers score this shortlist. dst
// is caller scratch; candidates is not modified.
func FitShortlist(dst []int, ctx *Context, t *job.Task, candidates []int, max int) []int {
	fit := dst[:0]
	for _, si := range candidates {
		dev := ctx.Cluster.Server(si).LeastLoadedDevice()
		if ctx.Cluster.Fits(si, dev.ID(), t.Demand, t.GPUShare, ctx.HR) {
			fit = append(fit, si)
		}
	}
	if len(fit) <= max {
		return fit
	}
	slices.SortFunc(fit, func(a, b int) int {
		return cmp.Or(cmp.Compare(ctx.Cluster.Server(a).OverloadDegree(), ctx.Cluster.Server(b).OverloadDegree()), cmp.Compare(a, b))
	})
	return fit[:max]
}

// PendingJobs returns the jobs that have at least one queued task, in the
// deterministic order of their lowest queued task id (≈ submission order
// for fresh jobs). It is served from the maintained sorted pending list —
// O(pending), zero-alloc in steady state, valid until the next call; the
// list is sorted by Tasks[0].ID, the same order because a job's task ids
// are contiguous.
func (c *Context) PendingJobs() []*job.Job {
	out := c.pendScratch[:0]
	for _, j := range c.pendingList {
		if j.InPendingList {
			out = append(out, j)
		}
	}
	c.pendScratch = out
	return out
}
