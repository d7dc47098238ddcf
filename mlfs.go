// Package mlfs is the public API of this repository: a full
// implementation of MLFS — the ML-feature-based job scheduling system of
// Wang, Liu and Shen, "Job Scheduling for Large-Scale Machine Learning
// Clusters" (CoNEXT 2020) — together with the cluster simulator, workload
// generator and the seven baseline schedulers the paper evaluates
// against.
//
// The package exposes three things:
//
//   - Scheduler construction: NewScheduler builds any of the policies the
//     paper compares (MLFS, MLF-H, MLF-RL and the baselines) by name.
//   - Experiments: Run executes one trace-driven simulation and returns
//     the paper's metrics; Compare sweeps schedulers × job counts the way
//     Figures 4 and 5 do.
//   - Workloads: GenerateTrace creates Philly-calibrated synthetic
//     traces; traces round-trip through CSV for reuse across runs.
//
// Everything is deterministic under a fixed seed.
package mlfs

import (
	"fmt"
	"sort"

	"mlfs/internal/baselines"
	"mlfs/internal/core"
	"mlfs/internal/core/mlfc"
	"mlfs/internal/core/mlfrl"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// Scheduler is the scheduling-policy interface (an alias of the internal
// interface so user code can hold and pass schedulers around).
type Scheduler = sched.Scheduler

// Result is the metrics bundle of one simulation run (alias of the
// internal metrics type; all fields are exported).
type Result = metrics.Result

// Trace is a workload trace (alias).
type Trace = trace.Trace

// composite is MLFS proper: MLF-RL (which shadows and imitates MLF-H
// until trained, §3.4) plus the MLF-C load controller (§3.5).
type composite struct {
	rl *mlfrl.Scheduler
	c  *mlfc.Controller
}

// Name implements Scheduler.
func (s *composite) Name() string { return "mlfs" }

// Schedule implements Scheduler: placement/migration by MLF-RL (or MLF-H
// during the training phase), then load control.
func (s *composite) Schedule(ctx *sched.Context) {
	s.rl.Schedule(ctx)
	s.c.Control(ctx)
}

// Dirty implements sched.Incremental by forwarding the round journal to
// MLF-RL's priority engine. MLF-C keeps no per-job caches (it reads the
// live context each Control call), so it needs no notification.
func (s *composite) Dirty(jobs []*job.Job) { s.rl.Dirty(jobs) }

// EncodeState implements sched.Snapshotter by concatenating the RL
// scheduler's training state and the load controller's counter.
func (s *composite) EncodeState(w *snapshot.Writer) {
	s.rl.EncodeState(w)
	s.c.EncodeState(w)
}

// DecodeState implements sched.Snapshotter.
func (s *composite) DecodeState(r *snapshot.Reader) error {
	if err := s.rl.DecodeState(r); err != nil {
		return err
	}
	return s.c.DecodeState(r)
}

// SchedulerOptions tune the MLFS-family schedulers. The zero value means
// the paper's §4.1 defaults.
type SchedulerOptions struct {
	// Seed drives RL policy randomness (default 1).
	Seed int64
	// Alpha, Gamma, GammaD, GammaR, GammaW override Eqs. 2–6 weights when
	// non-zero (defaults 0.3, 0.8, 0.3, 0.3, 0.35).
	Alpha, Gamma, GammaD, GammaR, GammaW float64
	// PSFraction overrides p_s when non-zero (default 0.10).
	PSFraction float64
	// ImitationRounds overrides how long MLF-RL/MLFS shadow MLF-H
	// (default 1000 rounds).
	ImitationRounds int
	// Betas overrides the Eq. 7 reward weights (β₁..β₅) when non-zero.
	Betas [5]float64
	// RLBatch sets MLF-RL's minibatch size: how many recorded decisions
	// accumulate into one optimizer step (default 1 — per-decision
	// updates, bit-identical to the historical training schedule).
	RLBatch int

	// Ablation switches (Figs. 6–9).
	DisableUrgency   bool
	DisableDeadline  bool
	DisableBandwidth bool
	DisableMigration bool
}

func (o SchedulerOptions) priorityParams() core.PriorityParams {
	p := core.DefaultPriorityParams()
	if o.Alpha != 0 {
		p.Alpha = o.Alpha
	}
	if o.Gamma != 0 {
		p.Gamma = o.Gamma
	}
	if o.GammaD != 0 {
		p.GammaD = o.GammaD
	}
	if o.GammaR != 0 {
		p.GammaR = o.GammaR
	}
	if o.GammaW != 0 {
		p.GammaW = o.GammaW
	}
	p.DisableUrgency = o.DisableUrgency
	p.DisableDeadline = o.DisableDeadline
	return p
}

func (o SchedulerOptions) mlfh() *core.MLFH {
	h := core.NewMLFH()
	h.Params = o.priorityParams()
	if o.PSFraction > 0 {
		h.PS = o.PSFraction
	}
	h.DisableBandwidth = o.DisableBandwidth
	h.DisableMigration = o.DisableMigration
	return h
}

func (o SchedulerOptions) mlfrl() *mlfrl.Scheduler {
	cfg := mlfrl.DefaultConfig()
	cfg.Priority = o.priorityParams()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.ImitationRounds > 0 {
		cfg.ImitationRounds = o.ImitationRounds
	}
	if o.Betas != ([5]float64{}) {
		cfg.Betas = o.Betas
	}
	if o.RLBatch > 0 {
		cfg.BatchSize = o.RLBatch
	}
	return mlfrl.New(cfg)
}

// SchedulerNames lists every policy NewScheduler accepts, in the order
// the paper's figures plot them.
func SchedulerNames() []string {
	return []string{
		"mlfs", "mlf-rl", "mlf-h",
		"graphene", "tiresias", "hypersched", "rl", "gandiva", "tensorflow", "slaq",
	}
}

// NewScheduler constructs a scheduling policy by name (see
// SchedulerNames). opts applies to the MLFS family; baselines only use
// opts.Seed. Beyond the names the paper plots, "fifo" and "srtf" build
// the classic arrival-order and shortest-remaining-time references (kept
// out of SchedulerNames so the default figure sweeps are unchanged).
func NewScheduler(name string, opts SchedulerOptions) (Scheduler, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	switch name {
	case "mlfs":
		return &composite{rl: opts.mlfrl(), c: mlfc.New()}, nil
	case "mlf-rl":
		return opts.mlfrl(), nil
	case "mlf-h":
		return opts.mlfh(), nil
	case "tensorflow":
		return baselines.NewBorgFair(), nil
	case "slaq":
		return baselines.NewSLAQ(), nil
	case "tiresias":
		return baselines.NewTiresias(), nil
	case "gandiva":
		return baselines.NewGandiva(), nil
	case "graphene":
		return baselines.NewGraphene(), nil
	case "hypersched":
		return baselines.NewHyperSched(), nil
	case "rl":
		return baselines.NewRLSched(seed), nil
	case "fifo":
		return baselines.NewFIFO(), nil
	case "srtf":
		return baselines.NewSRTF(), nil
	default:
		known := SchedulerNames()
		sort.Strings(known)
		return nil, fmt.Errorf("mlfs: unknown scheduler %q (known: %v)", name, known)
	}
}
