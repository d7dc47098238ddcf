package core

import (
	"math"

	"mlfs/internal/job"
	"mlfs/internal/sched"
)

// prioSlot caches one job's raw (pre-normalisation) priority components,
// indexed by the simulator's recycled job slot (job.SimSlot). The jobID
// guard detects slot recycling: a new tenant never reuses the previous
// job's arrays without a recompute.
//
// The cache holds the *raw* Eq. 2–5 components (ml/c and their base
// values), never the blended outputs: Eq. 6 normalises by cross-job
// maxima that move every round, so p/base are rewritten each Compute
// while ml/c/bml/bc survive for frozen jobs.
type prioSlot struct {
	jobID    job.ID
	valid    bool
	frozen   bool
	progress float64 // j.Progress bits at fill time; any change forces a refill

	ml, c, bml, bc []float64 // raw per-task components, reused while frozen
	p, base        []float64 // blended outputs, rewritten every round
}

// PriorityEngine computes each round's task priorities (Eqs. 2–6) from a
// per-job cache of the raw Eq. 2–5 component vectors that skips the
// per-job recursion (temporal priority, DAG accumulation, PS fixup) for
// jobs proven *frozen* — jobs whose every priority term is provably
// constant until the next change journalled for them.
//
// Freeze argument (each Eq. 2/4 term, per task):
//
//   - ML term (Eq. 2): urgency, NormSize static; temporal priority is a
//     pure function of Iteration(), i.e. of Progress — guarded by a
//     bitwise Progress comparison every round.
//   - Deadline term (Eq. 4): TaskDeadline is a function of Progress and
//     static job attributes; with Progress pinned, slack = deadline −
//     now only decreases, so once slack ≤ 1800 the floor makes the term
//     the constant GammaD/1800·3600 forever. Frozen requires slack ≤
//     1800 for every task (vacuous under DisableDeadline).
//   - Remaining term: GammaR/TaskRemaining·3600 is a function of
//     Progress only.
//   - Waiting term: w = (now−QueuedAt)/3600 only grows while the task
//     stays queued, so once w ≥ 2 the cap pins the term at GammaW·2.
//     Any requeue resets QueuedAt — and every requeue path (placement,
//     eviction, failure park/release, admission) journals the job, which
//     invalidates the slot through Dirty before the next round.
//
// Everything downstream of the raw components (copy to base, DAG
// recursion, PS fixup, Eq. 6 maxima + blend) is a pure function of
// them, recomputed every round over flat arrays, so engine outputs are
// bit-identical to a recomputation from scratch: the test reference in
// priorityref_test.go, which shares fillComponentPriorities and
// blendPriority, is checked against the engine after every journal
// delivery (roundcache_test.go).
//
// The zero value is ready to use. Not safe for concurrent use; each
// scheduler owns one engine.
type PriorityEngine struct {
	params PriorityParams
	slots  []prioSlot
	out    Priorities
}

// Dirty invalidates the cached components of every journalled job. Jobs
// never seen by the engine (SimSlot unassigned or recycled to a new
// tenant) are skipped by the guards.
func (e *PriorityEngine) Dirty(jobs []*job.Job) {
	for _, j := range jobs {
		if j.SimSlot >= 0 && j.SimSlot < len(e.slots) && e.slots[j.SimSlot].jobID == j.ID {
			e.slots[j.SimSlot].valid = false
		}
	}
}

// Reset drops every cached entry (snapshot restore: the restored
// context re-journals all pending jobs, but placed-only jobs get no
// dirty mark, so the whole cache must go).
func (e *PriorityEngine) Reset() {
	for i := range e.slots {
		e.slots[i].valid = false
	}
}

// Compute evaluates Eqs. 2–6 for every task of every live job at
// ctx.Now: O(dirty + unfrozen) per-job component work instead of
// O(jobs), and no steady-state allocations (slot arrays are high-water
// reused). Every live job must hold a distinct SimSlot, as the
// simulator's jobs do.
func (e *PriorityEngine) Compute(ctx *sched.Context, params PriorityParams) *Priorities {
	// Bitwise struct compare: any weight or ablation change must drop
	// the whole cache.
	if params != e.params {
		e.params = params
		e.Reset()
	}
	maxSlot := -1
	for _, j := range ctx.Jobs() {
		if !j.Done() && j.SimSlot > maxSlot {
			maxSlot = j.SimSlot
		}
	}
	for len(e.slots) <= maxSlot {
		e.slots = append(e.slots, prioSlot{jobID: -1})
	}

	var maxML, maxC, maxBaseML, maxBaseC float64
	for _, j := range ctx.Jobs() {
		if j.Done() {
			continue
		}
		s := &e.slots[j.SimSlot]
		if !s.valid || s.jobID != j.ID || !s.frozen ||
			math.Float64bits(s.progress) != math.Float64bits(j.Progress) {
			e.fill(ctx, j, s, params)
		}
		for i := range j.Tasks {
			if s.ml[i] > maxML {
				maxML = s.ml[i]
			}
			if s.c[i] > maxC {
				maxC = s.c[i]
			}
			if s.bml[i] > maxBaseML {
				maxBaseML = s.bml[i]
			}
			if s.bc[i] > maxBaseC {
				maxBaseC = s.bc[i]
			}
		}
	}
	for _, j := range ctx.Jobs() {
		if j.Done() {
			continue
		}
		s := &e.slots[j.SimSlot]
		s.p = resizeFloats(s.p, len(j.Tasks))
		s.base = resizeFloats(s.base, len(j.Tasks))
		for i := range j.Tasks {
			s.p[i] = blendPriority(s.ml[i], s.c[i], maxML, maxC, params)
			s.base[i] = blendPriority(s.bml[i], s.bc[i], maxBaseML, maxBaseC, params)
		}
	}
	e.out = Priorities{eng: e}
	return &e.out
}

// fill recomputes j's raw components into its slot and re-derives the
// frozen flag for the rounds ahead.
func (e *PriorityEngine) fill(ctx *sched.Context, j *job.Job, s *prioSlot, params PriorityParams) {
	n := len(j.Tasks)
	s.ml = resizeFloats(s.ml, n)
	s.c = resizeFloats(s.c, n)
	s.bml = resizeFloats(s.bml, n)
	s.bc = resizeFloats(s.bc, n)
	fillComponentPriorities(ctx, j, params, s.ml, s.c, s.bml, s.bc)
	s.jobID = j.ID
	s.valid = true
	s.progress = j.Progress
	s.frozen = frozenPriority(ctx, j, params)
}

// frozenPriority reports whether every time-dependent Eq. 2/4 term of j
// has saturated (see the PriorityEngine freeze argument): the slack
// floor holds for every task and the waiting cap for every queued one.
func frozenPriority(ctx *sched.Context, j *job.Job, params PriorityParams) bool {
	for _, t := range j.Tasks {
		if !params.DisableDeadline && j.TaskDeadline(t)-ctx.Now > 1800 {
			return false
		}
		if ctx.IsWaiting(t) && (ctx.Now-t.QueuedAt)/3600 < 2 {
			return false
		}
	}
	return true
}

// slot resolves the live cache entry backing t's job, nil when the job
// was never computed through this engine (the facade then reports 0 for
// an unknown task).
func (e *PriorityEngine) slot(j *job.Job) *prioSlot {
	if j.SimSlot < 0 || j.SimSlot >= len(e.slots) {
		return nil
	}
	s := &e.slots[j.SimSlot]
	if !s.valid || s.jobID != j.ID {
		return nil
	}
	return s
}

func (e *PriorityEngine) of(t *job.Task) float64 {
	if s := e.slot(t.Job); s != nil && t.Index < len(s.p) {
		return s.p[t.Index]
	}
	return 0
}

func (e *PriorityEngine) baseOf(t *job.Task) float64 {
	if s := e.slot(t.Job); s != nil && t.Index < len(s.base) {
		return s.base[t.Index]
	}
	return 0
}

// resizeFloats returns s with length n, reusing its backing array when
// capacity allows (contents are fully overwritten by every caller).
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
