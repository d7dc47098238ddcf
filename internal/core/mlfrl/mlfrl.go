// Package mlfrl implements MLF-RL, the ML-feature-based reinforcement-
// learning task scheduler of §3.4: a softmax placement policy over
// candidate servers, scored by a small MLP over the paper's state
// features (task ML/computation features + server utilisation), trained
// first by imitating MLF-H decisions and then by REINFORCE on the
// weighted multi-objective reward of Eq. 7.
//
// MLF-RL is built on an MLF-H (core.MLFH), as §3.4 builds it: each round
// runs that MLF-H's priorities, queue order, gang-placement loop
// (PlaceQueue) and relief loop (RelieveOverloads, with its victim
// selection), and replaces only the choice of destination server with
// the policy. The MLF-H's settings (priority weights, p_s, the bandwidth
// and migration ablation switches) therefore apply to MLF-RL too. Unlike
// MLF-H, MLF-RL moves up to 8 victims per overloaded server and does not
// re-place the queue after relief.
//
// Training is nn.Learner's loop, which the rl baseline shares: MLF-RL
// supplies its features, MLF-H's choice as the imitation target, the
// Eq. 7 reward and its ε-greedy explore decision. Scoring and training
// run on the batched nn engine: each decision's candidate servers
// become one candidates×features matrix pushed through one GEMM per
// layer against a reusable workspace, and the per-decision buffers
// (candidate shortlist, feature rows, recorded decisions) are reused
// across rounds, so a steady-state scheduling decision allocates
// nothing. Results are bit-identical to the per-candidate path.
//
// Determinism: exploration and weight initialisation use explicitly
// seeded sources, so training and inference replay bit-identically under
// a fixed seed. As a subpackage of core, mlfrl is enrolled in the lint
// DeterministicPaths registry (mapiter, noclock, sharedcapture), plus
// the repo-wide epochguard, floatcmp and pkgdoc checks.
package mlfrl

import (
	"mlfs/internal/cluster"
	"mlfs/internal/core"
	"mlfs/internal/job"
	"mlfs/internal/nn"
	"mlfs/internal/sched"
)

// FeatureSize is the length of the per-(task, server) feature vector fed
// to the policy network. The features encode the state listed in §3.4:
// task information (size, temporal importance, urgency, deadline,
// waiting/remaining time, dependency degree), server information
// (per-resource utilisation, GPU load, task count) and their interaction
// (communication affinity, RIAL distance).
const FeatureSize = 18

// MLF-RL's fixed settings, the paper's §4.1 defaults.
const (
	// eta is the future-reward discount η.
	eta = 0.95
	// hidden1 and hidden2 are the policy MLP's hidden layer sizes.
	hidden1, hidden2 = 32, 16
	// lr is the Adam learning rate.
	lr = 3e-4
	// explore keeps exploring after imitation, so REINFORCE keeps
	// improving the policy.
	explore = true
	// epsilon is the exploration rate: with probability epsilon a
	// placement is sampled from the softmax, otherwise the argmax is
	// taken. Full softmax sampling would undo the imitated policy.
	epsilon = 0.02
	// maxCandidates caps the number of candidate servers scored per
	// task, to bound per-decision cost.
	maxCandidates = 16
)

// Config parameterises MLF-RL with the paper's §4.1 defaults.
type Config struct {
	// Betas are the reward weights β₁..β₅ of Eq. 7
	// (default 0.5, 0.55, 0.25, 0.15, 0.15).
	Betas [5]float64
	// Seed drives all policy randomness.
	Seed int64
	// ImitationRounds is how many scheduling rounds MLF-RL shadows MLF-H
	// before switching to its own policy (default 1000 — the paper trains
	// on the first half of the trace, §4.1). During shadowing every
	// placement both follows and trains on the heuristic choice.
	ImitationRounds int
	// RewardDelayRounds is t_m: how many rounds after a decision the
	// cumulative discounted reward is computed (default 5).
	RewardDelayRounds int
	// BatchSize is how many recorded decisions accumulate into one
	// optimizer step, for both imitation and REINFORCE (default 1: one
	// step per decision, bit-identical to the historical training
	// schedule). Larger batches take fewer, averaged steps — the
	// minibatch schedule of the neural schedulers MLF-RL follows
	// (Decima, DL2) — and let the engine run decision-spanning GEMMs.
	// During imitation the placement follows MLF-H either way, so
	// simulation metrics are unchanged by imitation batching; REINFORCE
	// batching changes the (deterministic) update trajectory.
	BatchSize int
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Betas:             [5]float64{0.5, 0.55, 0.25, 0.15, 0.15},
		Seed:              1,
		ImitationRounds:   1000,
		RewardDelayRounds: 5,
		BatchSize:         1,
	}
}

// Scheduler is the MLF-RL policy. It satisfies sched.Scheduler.
type Scheduler struct {
	cfg     Config
	learner *nn.Learner
	// heur is the MLF-H whose round MLF-RL runs: priorities, queue
	// order, gang placement, relief and victim selection are its, and
	// during imitation so is every destination. Only the destination
	// chooser is MLF-RL's own.
	heur *core.MLFH //mlfs:derived configuration plus round scratch; DecodeState drops its engine cache

	// choose is chooseServer bound once, so handing it to heur's loops
	// allocates nothing per round.
	choose sched.ServerChooser //mlfs:derived bound in New

	// Per-round scratch, reused so the decision hot path makes no
	// steady-state allocations.
	prios *core.Priorities //mlfs:derived scratch: the round's priorities, read by chooseServer
	fit   []int            //mlfs:derived scratch: the candidate shortlist
}

// New builds an MLF-RL scheduler on h, the MLF-H whose priorities,
// placement order, relief loop and victim selection it runs. New sets
// h's relief bound to 8 migrations per server.
func New(cfg Config, h *core.MLFH) *Scheduler {
	if cfg.Betas == ([5]float64{}) {
		cfg.Betas = DefaultConfig().Betas
	}
	if cfg.ImitationRounds < 0 {
		cfg.ImitationRounds = 0
	}
	if cfg.RewardDelayRounds <= 0 {
		cfg.RewardDelayRounds = 5
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	h.MaxMigrationsPerServer = 8
	policy := nn.NewPolicy(FeatureSize, []int{hidden1, hidden2}, lr, cfg.Seed)
	s := &Scheduler{
		cfg: cfg,
		// Rounds 1..ImitationRounds−1 imitate MLF-H.
		learner: nn.NewLearner(policy, cfg.ImitationRounds-1, cfg.RewardDelayRounds, eta, cfg.BatchSize),
		heur:    h,
	}
	s.choose = s.chooseServer
	return s
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "mlf-rl" }

// Policy exposes the underlying nn policy (test introspection and the
// reference-path determinism seam).
func (s *Scheduler) Policy() *nn.Policy { return s.learner.Policy() }

// Trained reports whether the imitation phase is over (§3.4: MLFS
// switches from MLF-H to MLF-RL "after the RL model is well trained").
func (s *Scheduler) Trained() bool { return !s.learner.Imitating() }

// Updates returns the number of policy-gradient updates applied (test
// introspection).
func (s *Scheduler) Updates() int { return s.learner.Updates() }

// Imitated returns the number of supervised imitation updates applied.
func (s *Scheduler) Imitated() int { return s.learner.Imitated() }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) {
	s.learner.BeginRound(s.rewardOf(ctx))

	s.prios = s.heur.Priorities(ctx)
	s.heur.PlaceQueue(ctx, s.prios, s.choose)
	// Overload relief: victim selection stays heuristic; the destination
	// is chosen by the policy (the action space of §3.4 includes the
	// migration destinations). Unlike MLF-H, MLF-RL does not re-place
	// the queue after relief.
	if !s.heur.DisableMigration {
		s.heur.RelieveOverloads(ctx, s.prios, s.choose)
	}
}

// Dirty implements sched.Incremental by forwarding the round journal to
// the MLF-H's priority engine.
func (s *Scheduler) Dirty(jobs []*job.Job) { s.heur.Dirty(jobs) }

// rewardOf evaluates Eq. 7 on the jobs completed in the window plus the
// bandwidth used since the last round. Each objective is normalised to
// [0,1] so the β weights act on comparable scales.
func (s *Scheduler) rewardOf(ctx *sched.Context) float64 {
	g := [5]float64{}
	if n := len(ctx.Completed); n > 0 {
		var sumJCT, acc float64
		var ddl, accOK int
		for _, j := range ctx.Completed {
			sumJCT += j.JCT()
			acc += j.AccuracyAtDeadline
			if j.DeadlineMet() {
				ddl++
			}
			if j.AccuracyMet() {
				accOK++
			}
		}
		g[0] = 1 / (1 + sumJCT/float64(n)/3600) // g1: 1/avg JCT (hours)
		g[1] = float64(ddl) / float64(n)        // g2: deadline guarantee
		g[3] = float64(accOK) / float64(n)      // g4: accuracy guarantee
		g[4] = acc / float64(n)                 // g5: average accuracy
	}
	g[2] = 1 / (1 + ctx.RecentBandwidthMB/1024) // g3: 1/bandwidth (GB)
	var r float64
	for i := range g {
		r += s.cfg.Betas[i] * g[i]
	}
	return r
}

// chooseServer is MLF-RL's sched.ServerChooser: it scores the candidate
// servers with the policy and picks one (imitating MLF-H's choice during
// the training phase).
func (s *Scheduler) chooseServer(ctx *sched.Context, t *job.Task, candidates []int) (int, int, bool) {
	fit := sched.FitShortlist(s.fit, ctx, t, candidates, maxCandidates)
	s.fit = fit
	if len(fit) == 0 {
		return 0, 0, false
	}
	feats := s.learner.Policy().Candidates(len(fit))
	for i, si := range fit {
		FeaturesInto(feats.Row(i), ctx, t, si, s.prios)
	}

	var chosen int
	if s.learner.Imitating() {
		// Imitation phase: follow MLF-H's RIAL choice and learn it.
		hs, _, ok := s.heur.ChooseServer(ctx, t, fit)
		if !ok {
			return 0, 0, false
		}
		for i, si := range fit {
			if si == hs {
				chosen = i
				break
			}
		}
		s.learner.Imitate(feats, chosen)
	} else {
		chosen = s.learner.Decide(feats, explore && s.learner.Policy().Flip(epsilon))
	}
	si := fit[chosen]
	return si, ctx.Cluster.Server(si).LeastLoadedDevice().ID(), true
}

// FeaturesInto fills dst (length FeatureSize) with the policy input
// vector for placing task t on server si — the allocation-free form the
// scoring hot path writes straight into a candidate matrix row.
func FeaturesInto(dst []float64, ctx *sched.Context, t *job.Task, si int, prios *core.Priorities) {
	j := t.Job
	srv := ctx.Cluster.Server(si)
	u := srv.Utilization()
	dev := srv.LeastLoadedDevice()

	slack := (j.Deadline - ctx.Now) / 3600
	if slack > 48 {
		slack = 48
	} else if slack < -48 {
		slack = -48
	}
	wait := 0.0
	if ctx.IsWaiting(t) {
		wait = (ctx.Now - t.QueuedAt) / 3600
		if wait > 24 {
			wait = 24
		}
	}
	isPS := 0.0
	if t.IsPS {
		isPS = 1
	}
	f := [FeatureSize]float64{
		// Task / job features (§3.4 state list).
		t.NormSize(),
		j.Curve.TemporalPriority(j.Iteration()),
		float64(j.Urgency) / 10,
		slack / 48,
		wait / 24,
		j.ProgressFraction(),
		float64(len(t.Children())) / 8,
		float64(len(t.Parents())) / 8,
		t.ComputeSec / 60,
		isPS,
		prios.Of(t),
		// Server features.
		u[cluster.ResGPU],
		u[cluster.ResCPU],
		u[cluster.ResMemory],
		u[cluster.ResBandwidth],
		dev.Utilization(),
		float64(srv.NumTasks()) / float64(1+4*srv.NumDevices()),
		// Interaction: communication affinity.
		core.CommVolumeWith(ctx, t, si) / 200,
	}
	copy(dst[:FeatureSize], f[:])
}
