// Package core implements the paper's contribution: the ML-feature-based
// task priority (Eqs. 2–6), the MLF-H heuristic scheduler (§3.3), the
// MLF-RL reinforcement-learning scheduler (§3.4, in subpackage mlfrl), the
// MLF-C load controller (§3.5, in subpackage mlfc) and the MLFS composite.
//
// Determinism: priorities and schedules are pure functions of job and
// cluster state; MLF-RL's sampling uses explicitly seeded sources. core
// and its subpackages are enrolled in the lint DeterministicPaths
// registry, so the mapiter, noclock and sharedcapture analyzers gate
// them on every `make lint`, alongside the repo-wide epochguard,
// floatcmp and pkgdoc checks.
package core

import (
	"math"

	"mlfs/internal/job"
	"mlfs/internal/sched"
)

// PriorityParams are the tunable weights of Eqs. 2–6 with the paper's
// §4.1 defaults, plus the ablation switches exercised by Figs. 6–7.
type PriorityParams struct {
	// Alpha blends ML features against computation features (Eq. 6).
	Alpha float64
	// Gamma discounts children priorities in the DAG recursion (Eqs. 3, 5).
	Gamma float64
	// GammaD, GammaR, GammaW weight deadline, remaining time and waiting
	// time in Eq. 4.
	GammaD, GammaR, GammaW float64

	// DisableUrgency drops L_J from Eq. 2 (Fig 6 ablation).
	DisableUrgency bool
	// DisableDeadline drops the 1/(d−t) term from Eq. 4 (Fig 6 ablation).
	DisableDeadline bool
}

// DefaultPriorityParams returns the paper's §4.1 values.
func DefaultPriorityParams() PriorityParams {
	return PriorityParams{Alpha: 0.3, Gamma: 0.8, GammaD: 0.3, GammaR: 0.3, GammaW: 0.35}
}

// Priorities holds one round's P_{k,J} values for every task of the
// live jobs, plus the base (pre-recursion) values used for job-level
// queue ordering. It is a view of the PriorityEngine that computed it,
// valid until that engine's next Compute.
type Priorities struct {
	eng *PriorityEngine
}

// Of returns P_{k,J} for task t (0 for unknown tasks).
func (p *Priorities) Of(t *job.Task) float64 { return p.eng.of(t) }

// BaseOf returns the blended priority of task t *before* the DAG
// recursion of Eqs. 3/5. The recursion exists to order tasks within a
// job ("completion enables more tasks to start"); across jobs it would
// systematically favour deeper DAGs, so job-level queue ordering uses
// the base values. In the paper tasks queue individually, making this
// distinction moot; under gang scheduling it matters.
func (p *Priorities) BaseOf(t *job.Task) float64 { return p.eng.baseOf(t) }

// JobOrder returns the job-level queue score: the maximum base priority
// among the given tasks.
func (p *Priorities) JobOrder(tasks []*job.Task) float64 {
	best := 0.0
	for _, t := range tasks {
		if v := p.BaseOf(t); v > best {
			best = v
		}
	}
	return best
}

// blendPriority is Eq. 6: normalise each component by its cross-job
// maximum and mix with Alpha. Shared by the engine and its test
// reference so the final arithmetic cannot drift between them.
func blendPriority(ml, c, mMax, cMax float64, params PriorityParams) float64 {
	nml, nc := 0.0, 0.0
	if mMax > 0 {
		nml = ml / mMax
	}
	if cMax > 0 {
		nc = c / cMax
	}
	return params.Alpha*nml + (1-params.Alpha)*nc
}

// fillComponentPriorities computes the Eq. 2–5 components of one job's
// tasks (queued tasks use their queue waiting time for w_{k,J}, placed
// tasks 0) into caller-provided slices of length len(j.Tasks),
// overwriting every element. The PriorityEngine fills its cached slots
// with it, and so does its test reference (priorityref_test.go).
func fillComponentPriorities(ctx *sched.Context, j *job.Job, params PriorityParams, ml, c, baseML, baseC []float64) {
	// --- Base ML priority, Eq. 2: L_J · (1/I) · δl_{I−1}/Σδl · S_k ---
	urgency := float64(j.Urgency)
	if params.DisableUrgency || urgency <= 0 {
		urgency = 1
	}
	temporal := j.Curve.TemporalPriority(j.Iteration())
	for i, t := range j.Tasks {
		ml[i] = urgency * temporal * t.NormSize()
	}

	// --- Base computation priority, Eq. 4 ---
	for i, t := range j.Tasks {
		var p float64
		if !params.DisableDeadline {
			// 1/(d_k − t); an expired or imminent deadline saturates the
			// term rather than flipping sign. The floor is half an hour so
			// one expired job cannot blow up the normalisation scale and
			// flatten everyone else's computation priority.
			slack := j.TaskDeadline(t) - ctx.Now
			if slack < 1800 {
				slack = 1800
			}
			p += params.GammaD / slack * 3600 // scale: per-hour slack
		}
		if r := j.TaskRemaining(t); r > 0 {
			p += params.GammaR / r * 3600
		}
		if ctx.IsWaiting(t) {
			// Waiting time boosts priority but saturates at two hours so
			// it cannot drown the remaining-time (SJF-like) and deadline
			// terms; the deadline term takes over as slack runs out, which
			// prevents starvation.
			w := (ctx.Now - t.QueuedAt) / 3600
			if w > 2 {
				w = 2
			}
			p += params.GammaW * w
		}
		c[i] = p
	}

	copy(baseML, ml)
	copy(baseC, c)

	// --- DAG recursion, Eqs. 3 and 5: reverse-topological accumulation. ---
	stages := j.Stages()
	for s := len(stages) - 1; s >= 0; s-- {
		for _, ti := range stages[s] {
			t := j.Tasks[ti]
			var sumML, sumC float64
			for _, ci := range t.Children() {
				sumML += ml[ci]
				sumC += c[ci]
			}
			ml[ti] += params.Gamma * sumML
			c[ti] += params.Gamma * sumC
		}
	}

	// The parameter server carries the highest priority in its job
	// (§3.3.1): workers cannot ship results until it is up.
	var maxML, maxC float64
	psIdx := -1
	for i, t := range j.Tasks {
		if t.IsPS {
			psIdx = i
			continue
		}
		maxML = math.Max(maxML, ml[i])
		maxC = math.Max(maxC, c[i])
	}
	if psIdx >= 0 {
		ml[psIdx] = maxML * 1.01
		c[psIdx] = maxC * 1.01
		baseML[psIdx] = ml[psIdx]
		baseC[psIdx] = c[psIdx]
	}
}
