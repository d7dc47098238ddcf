// Package mlfrl implements MLF-RL, the ML-feature-based reinforcement-
// learning task scheduler of §3.4: a softmax placement policy over
// candidate servers, scored by a small MLP over the paper's state
// features (task ML/computation features + server utilisation), trained
// first by imitating MLF-H decisions and then by REINFORCE on the
// weighted multi-objective reward of Eq. 7.
//
// Scoring and training run on the batched nn engine: each decision's
// candidate servers become one candidates×features matrix pushed
// through one GEMM per layer against a reusable workspace, and the
// scheduler's own per-decision buffers (candidate filter, feature rows,
// migration bookkeeping) are reused across rounds, so a steady-state
// scheduling decision allocates nothing. Results are bit-identical to
// the per-candidate path.
//
// Determinism: exploration and weight initialisation use explicitly
// seeded sources, so training and inference replay bit-identically under
// a fixed seed. As a subpackage of core, mlfrl is enrolled in the lint
// DeterministicPaths registry (mapiter, noclock, sharedcapture), plus
// the repo-wide epochguard, floatcmp and pkgdoc checks.
package mlfrl

import (
	"math"
	"sort"

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

// Config parameterises MLF-RL with the paper's §4.1 defaults.
type Config struct {
	// Eta is the future-reward discount η (default 0.95).
	Eta float64
	// Betas are the reward weights β₁..β₅ of Eq. 7
	// (default 0.5, 0.55, 0.25, 0.15, 0.15).
	Betas [5]float64
	// Hidden are the policy MLP hidden layer sizes (default 32, 16).
	Hidden []int
	// LR is the Adam learning rate (default 3e-4).
	LR float64
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
	// Explore keeps exploring after imitation, enabling continued
	// REINFORCE improvement (default true).
	Explore bool
	// Epsilon is the exploration rate: with probability Epsilon a
	// placement is sampled from the softmax, otherwise the argmax is
	// taken (default 0.02). Full softmax sampling would undo the imitated
	// policy.
	Epsilon float64
	// MaxCandidates caps the number of candidate servers scored per task
	// (default 16) to bound per-decision cost.
	MaxCandidates int
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
	// Priority carries the Eq. 2–6 parameters used for queue ordering and
	// feature computation.
	Priority core.PriorityParams
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Eta:               0.95,
		Betas:             [5]float64{0.5, 0.55, 0.25, 0.15, 0.15},
		Hidden:            []int{32, 16},
		LR:                3e-4,
		Seed:              1,
		ImitationRounds:   1000,
		RewardDelayRounds: 5,
		Explore:           true,
		Epsilon:           0.02,
		MaxCandidates:     16,
		BatchSize:         1,
		Priority:          core.DefaultPriorityParams(),
	}
}

// decision is one recorded placement awaiting its delayed reward. Its
// feature matrix comes from the scheduler's freelist and returns there
// once the reward is applied.
type decision struct {
	round  int
	feats  *nn.Matrix
	chosen int
}

// scoredJob pairs a job with its queue priority for the placement order.
type scoredJob struct {
	j *job.Job
	p float64
}

// scoredJobs sorts by (priority desc, job id asc) without the
// reflection overhead of sort.Slice; ids are unique, so the order is
// total and sort.Sort is deterministic without stability.
type scoredJobs []scoredJob

func (s scoredJobs) Len() int      { return len(s) }
func (s scoredJobs) Swap(i, k int) { s[i], s[k] = s[k], s[i] }
func (s scoredJobs) Less(i, k int) bool {
	if s[i].p != s[k].p {
		return s[i].p > s[k].p
	}
	return s[i].j.ID < s[k].j.ID
}

// Scheduler is the MLF-RL policy. It satisfies sched.Scheduler.
type Scheduler struct {
	cfg    Config
	policy *nn.Policy
	heur   *core.MLFH // supplies migration victim selection + imitation targets

	round       int
	pending     []decision
	rewards     []float64 // per-round reward history
	imitated    int
	updates     int
	imitFlushed bool // imitation leftovers stepped at the phase switch

	// eng backs priority computation on incremental rounds (lazily
	// built; nil under the full-rescan oracle, which keeps exercising
	// core.ComputePriorities directly).
	eng *core.PriorityEngine //mlfs:derived rebuilt from scratch after restore

	// Per-round scratch, reused so the decision hot path makes no
	// steady-state allocations.
	fit      []int               //mlfs:derived scratch: candidate servers passing the fit check
	order    []scoredJob         //mlfs:derived scratch: priority-ordered pending jobs
	taskBuf  []*job.Task         //mlfs:derived scratch: one job's queued tasks
	tried    map[job.TaskID]bool //mlfs:derived scratch: migration victims already attempted
	featFree []*nn.Matrix        //mlfs:derived scratch: freelist backing decision.feats
}

// New builds an MLF-RL scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Eta <= 0 || cfg.Eta > 1 {
		cfg.Eta = 0.95
	}
	if cfg.Betas == ([5]float64{}) {
		cfg.Betas = DefaultConfig().Betas
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{32, 16}
	}
	if cfg.LR <= 0 {
		cfg.LR = 3e-4
	}
	if cfg.ImitationRounds < 0 {
		cfg.ImitationRounds = 0
	}
	if cfg.RewardDelayRounds <= 0 {
		cfg.RewardDelayRounds = 5
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = 16
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.02
	}
	if cfg.Priority == (core.PriorityParams{}) {
		cfg.Priority = core.DefaultPriorityParams()
	}
	h := core.NewMLFH()
	h.Params = cfg.Priority
	return &Scheduler{
		cfg:    cfg,
		policy: nn.NewPolicy(FeatureSize, cfg.Hidden, cfg.LR, cfg.Seed),
		heur:   h,
		tried:  make(map[job.TaskID]bool, 16),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "mlf-rl" }

// Policy exposes the underlying nn policy (test introspection and the
// reference-path determinism seam).
func (s *Scheduler) Policy() *nn.Policy { return s.policy }

// Trained reports whether the imitation phase is over (§3.4: MLFS
// switches from MLF-H to MLF-RL "after the RL model is well trained").
func (s *Scheduler) Trained() bool { return s.round >= s.cfg.ImitationRounds }

// Updates returns the number of policy-gradient updates applied (test
// introspection).
func (s *Scheduler) Updates() int { return s.updates }

// Imitated returns the number of supervised imitation updates applied.
func (s *Scheduler) Imitated() int { return s.imitated }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) {
	s.round++
	if s.Trained() && !s.imitFlushed {
		// Imitation leftovers below one full minibatch: apply them before
		// the first policy-driven placement (no-op at BatchSize 1).
		s.policy.Step()
		s.imitFlushed = true
	}
	s.recordReward(ctx)
	s.trainPending()

	prios := s.computePriorities(ctx)
	s.placeQueue(ctx, prios)
	// Overload relief: victim selection stays heuristic; the destination
	// is chosen by the policy (the action space of §3.4 includes the
	// migration destinations).
	s.relieveOverloads(ctx, prios)
}

// Dirty implements sched.Incremental: journalled jobs drop their cached
// priority components so the next round recomputes them.
func (s *Scheduler) Dirty(jobs []*job.Job) {
	if s.eng != nil {
		s.eng.Dirty(jobs)
	}
}

// computePriorities picks the backend: the slot-cached engine on
// incremental rounds, the oracle otherwise — bit-identical either way
// (crosschecked by the incremental-vs-full-rescan suite).
func (s *Scheduler) computePriorities(ctx *sched.Context) *core.Priorities {
	if !ctx.Incremental() {
		return core.ComputePriorities(ctx, s.cfg.Priority)
	}
	if s.eng == nil {
		s.eng = &core.PriorityEngine{}
	}
	return s.eng.Compute(ctx, s.cfg.Priority)
}

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

// recordReward appends this round's reward to the history.
func (s *Scheduler) recordReward(ctx *sched.Context) {
	s.rewards = append(s.rewards, s.rewardOf(ctx))
}

// trainPending applies REINFORCE to decisions whose reward window has
// closed: cumulative discounted reward Σ η^i·r_{t+i} (§3.4). With
// BatchSize > 1, matured decisions accumulate (in decision order) into
// one averaged optimizer step per full minibatch.
func (s *Scheduler) trainPending() {
	cut := 0
	for i := range s.pending {
		d := &s.pending[i]
		if s.round-d.round < s.cfg.RewardDelayRounds {
			break
		}
		var r float64
		for k := 0; k < s.cfg.RewardDelayRounds; k++ {
			idx := d.round + k
			if idx < len(s.rewards) {
				r += math.Pow(s.cfg.Eta, float64(k)) * s.rewards[idx]
			}
		}
		if s.cfg.BatchSize <= 1 {
			s.policy.ReinforceBatch(d.feats, d.chosen, r)
		} else if s.policy.AccumReinforce(d.feats, d.chosen, r) &&
			s.policy.Accumulated() >= s.cfg.BatchSize {
			s.policy.Step()
		}
		s.updates++
		s.releaseFeats(d.feats)
		d.feats = nil
		cut++
	}
	s.pending = s.pending[cut:]
	// Bound history growth.
	if len(s.rewards) > 4096 && len(s.pending) == 0 {
		s.rewards = s.rewards[len(s.rewards)-64:]
	}
}

// placeQueue mirrors MLF-H's priority-ordered gang placement but chooses
// each destination with the policy network.
func (s *Scheduler) placeQueue(ctx *sched.Context, prios *core.Priorities) {
	jobs := ctx.PendingJobs()
	s.order = s.order[:0]
	for _, j := range jobs {
		s.taskBuf = ctx.QueuedTasksInto(j, s.taskBuf[:0])
		// Skip jobs the no-fit frontier proves unplaceable before paying
		// their ordering work (bit-identical — see Context.GangHopeless).
		if len(s.taskBuf) == 0 || ctx.GangHopeless(s.taskBuf[0]) {
			continue
		}
		s.order = append(s.order, scoredJob{j, prios.JobOrder(s.taskBuf)})
	}
	order := s.order
	sort.Sort(scoredJobs(order))
	for _, e := range order {
		tasks := ctx.QueuedTasksInto(e.j, s.taskBuf[:0])
		sort.SliceStable(tasks, func(i, k int) bool {
			return prios.Of(tasks[i]) > prios.Of(tasks[k])
		})
		s.taskBuf = tasks[:0]
		ctx.PlaceGang(tasks, func(c *sched.Context, t *job.Task, cand []int) (int, int, bool) {
			return s.chooseServer(c, t, cand, prios)
		})
	}
}

// captureFeats copies the scored candidate matrix into a freelist-backed
// matrix owned by a pending decision.
func (s *Scheduler) captureFeats(x *nn.Matrix) *nn.Matrix {
	var m *nn.Matrix
	if n := len(s.featFree); n > 0 {
		m = s.featFree[n-1]
		s.featFree = s.featFree[:n-1]
		m.Reshape(x.Rows, x.Cols)
	} else {
		m = nn.NewMatrix(x.Rows, x.Cols)
	}
	copy(m.Data, x.Data)
	return m
}

// releaseFeats returns a decision's feature matrix to the freelist.
func (s *Scheduler) releaseFeats(m *nn.Matrix) {
	s.featFree = append(s.featFree, m)
}

// chooseServer scores the candidate servers with the policy and picks one
// (imitating MLF-H's choice during the training phase).
func (s *Scheduler) chooseServer(ctx *sched.Context, t *job.Task, candidates []int, prios *core.Priorities) (int, int, bool) {
	fit := s.fit[:0]
	for _, si := range candidates {
		dev := ctx.Cluster.Server(si).LeastLoadedDevice()
		if ctx.Cluster.Fits(si, dev.ID(), t.Demand, t.GPUShare, ctx.HR) {
			fit = append(fit, si)
		}
	}
	s.fit = fit
	if len(fit) == 0 {
		return 0, 0, false
	}
	if len(fit) > s.cfg.MaxCandidates {
		// Deterministically keep the least-loaded candidates.
		sort.SliceStable(fit, func(i, k int) bool {
			a := ctx.Cluster.Server(fit[i]).OverloadDegree()
			b := ctx.Cluster.Server(fit[k]).OverloadDegree()
			if a != b {
				return a < b
			}
			return fit[i] < fit[k]
		})
		fit = fit[:s.cfg.MaxCandidates]
	}
	feats := s.policy.Candidates(len(fit))
	for i, si := range fit {
		FeaturesInto(feats.Row(i), ctx, t, si, prios)
	}

	var chosen int
	if !s.Trained() {
		// Imitation phase: follow MLF-H's RIAL choice and learn it.
		hs, _, ok := s.heur.ChooseServer(ctx, t, fit)
		if !ok {
			return 0, 0, false
		}
		chosen = 0
		for i, si := range fit {
			if si == hs {
				chosen = i
				break
			}
		}
		if s.cfg.BatchSize <= 1 {
			s.policy.ImitateBatch(feats, chosen)
		} else {
			s.policy.AccumImitate(feats, chosen)
			if s.policy.Accumulated() >= s.cfg.BatchSize {
				s.policy.Step()
			}
		}
		s.imitated++
	} else {
		explore := s.cfg.Explore && s.policy.Flip(s.cfg.Epsilon)
		chosen, _ = s.policy.ChooseBatch(feats, explore)
		s.pending = append(s.pending, decision{round: s.round, feats: s.captureFeats(feats), chosen: chosen})
	}
	si := fit[chosen]
	return si, ctx.Cluster.Server(si).LeastLoadedDevice().ID(), true
}

// relieveOverloads keeps MLF-H's ideal-virtual-task victim selection but
// routes destinations through the policy. Like MLF-H, it never requeues
// a victim (see the deviation note on core.MLFH.relieveOverloads).
func (s *Scheduler) relieveOverloads(ctx *sched.Context, prios *core.Priorities) {
	for _, si := range ctx.Cluster.Overloaded(ctx.HR) {
		clear(s.tried)
		for moved := 0; moved < 8; moved++ {
			srv := ctx.Cluster.Server(si)
			if !srv.Overloaded(ctx.HR) {
				break
			}
			cand := ctx.Cluster.Underloaded(ctx.HR)
			if len(cand) == 0 {
				break
			}
			victim := s.heur.SelectMigrationTask(ctx, prios, si)
			if victim == nil || s.tried[victim.ID] {
				break
			}
			s.tried[victim.ID] = true
			dst, dev, ok := s.chooseServer(ctx, victim, cand, prios)
			if !ok {
				break
			}
			if err := ctx.Migrate(victim, dst, dev); err != nil {
				break
			}
		}
	}
}

// Features builds the policy input vector for placing task t on server
// si. Exported for tests and for the mlfs facade's introspection tools.
func Features(ctx *sched.Context, t *job.Task, si int, prios *core.Priorities) []float64 {
	f := make([]float64, FeatureSize)
	FeaturesInto(f, ctx, t, si, prios)
	return f
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
