package core

import (
	"mlfs/internal/job"
	"mlfs/internal/sched"
)

// RefPriorities is one round's priorities as the plain recomputation
// ComputePriorities builds them: maps keyed by task id, no cache.
type RefPriorities struct {
	p, base map[job.TaskID]float64
}

// Of returns P_{k,J} for task t (0 for unknown tasks).
func (p *RefPriorities) Of(t *job.Task) float64 { return p.p[t.ID] }

// BaseOf returns task t's blended priority before the DAG recursion.
func (p *RefPriorities) BaseOf(t *job.Task) float64 { return p.base[t.ID] }

// ComputePriorities is the reference the PriorityEngine must match bit
// for bit: it evaluates Eqs. 2–6 for every task of every live job at
// ctx.Now from scratch. Queued tasks use their queue waiting time for
// w_{k,J}; placed tasks use 0. The ML and computation components are
// each normalised by their maximum across all tasks before blending, so
// Alpha weighs comparable quantities.
func ComputePriorities(ctx *sched.Context, params PriorityParams) *RefPriorities {
	n := 0
	for _, j := range ctx.Jobs() {
		n += len(j.Tasks)
	}
	mls := make(map[job.TaskID]float64, n)
	cs := make(map[job.TaskID]float64, n)
	baseMLs := make(map[job.TaskID]float64, n)
	baseCs := make(map[job.TaskID]float64, n)
	var maxML, maxC, maxBaseML, maxBaseC float64

	for _, j := range ctx.Jobs() {
		if j.Done() {
			continue
		}
		ml, c, bml, bc := jobComponentPriorities(ctx, j, params)
		for i, t := range j.Tasks {
			mls[t.ID] = ml[i]
			cs[t.ID] = c[i]
			baseMLs[t.ID] = bml[i]
			baseCs[t.ID] = bc[i]
			if ml[i] > maxML {
				maxML = ml[i]
			}
			if c[i] > maxC {
				maxC = c[i]
			}
			if bml[i] > maxBaseML {
				maxBaseML = bml[i]
			}
			if bc[i] > maxBaseC {
				maxBaseC = bc[i]
			}
		}
	}
	out := &RefPriorities{
		p:    make(map[job.TaskID]float64, len(mls)),
		base: make(map[job.TaskID]float64, len(mls)),
	}
	for id := range mls {
		out.p[id] = blendPriority(mls[id], cs[id], maxML, maxC, params)
		out.base[id] = blendPriority(baseMLs[id], baseCs[id], maxBaseML, maxBaseC, params)
	}
	return out
}

// jobComponentPriorities returns the recursed P^{ML} and P^{C} per task
// index for one job (Eqs. 3/5), plus the base values of Eqs. 2/4 before
// the dependent-task accumulation.
func jobComponentPriorities(ctx *sched.Context, j *job.Job, params PriorityParams) (ml, c, baseML, baseC []float64) {
	n := len(j.Tasks)
	ml = make([]float64, n)
	c = make([]float64, n)
	baseML = make([]float64, n)
	baseC = make([]float64, n)
	fillComponentPriorities(ctx, j, params, ml, c, baseML, baseC)
	return ml, c, baseML, baseC
}
