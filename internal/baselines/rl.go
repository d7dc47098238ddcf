package baselines

import (
	"sort"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/nn"
	"mlfs/internal/sched"
)

// rlFeatureSize is the per-(task, server) feature size of the RL
// baseline. Deliberately smaller than MLF-RL's: the Mirhoseini-style
// device-placement scheduler sees computation and placement state but
// none of the ML job features (urgency, temporal importance, partition
// size, accuracy) — that difference is the paper's point.
const rlFeatureSize = 9

// RLSched is the RL baseline of §2 (Mirhoseini et al.): a learned device-
// placement policy whose reward is job completion time only. Jobs are
// scanned in FIFO order; each task's destination is sampled from a
// softmax policy trained by REINFORCE; no accuracy or ML features enter
// the state, and there is no overload handling.
type RLSched struct {
	policy *nn.Policy
	warmup int // rounds of least-loaded imitation before the policy drives
	round  int

	pending []rlDecision
	rewards []float64
}

type rlDecision struct {
	round      int
	candidates [][]float64
	chosen     int
}

// NewRLSched returns the RL baseline with a deterministic seed.
func NewRLSched(seed int64) *RLSched {
	return &RLSched{
		policy: nn.NewPolicy(rlFeatureSize, []int{24, 12}, 1e-3, seed),
		warmup: 100,
	}
}

// Name implements sched.Scheduler.
func (*RLSched) Name() string { return "rl" }

// Schedule implements sched.Scheduler.
func (r *RLSched) Schedule(ctx *sched.Context) {
	r.round++
	// JCT-only reward: 1/(1 + avg JCT of the window's completions).
	reward := 0.0
	if n := len(ctx.Completed); n > 0 {
		var sum float64
		for _, j := range ctx.Completed {
			sum += j.JCT()
		}
		reward = 1 / (1 + sum/float64(n)/3600)
	}
	r.rewards = append(r.rewards, reward)
	r.train()

	jobs := ctx.PendingJobs()
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	for _, j := range jobs {
		ctx.PlaceGang(ctx.QueuedTasksOf(j), r.choose)
	}
}

func (r *RLSched) train() {
	const delay = 5
	// One reward is appended per round and the history is trimmed from
	// the front, so rewards[i] is the reward recorded in round base+i+1.
	base := r.round - len(r.rewards)
	cut := 0
	for _, d := range r.pending {
		if r.round-d.round < delay {
			break
		}
		var rew float64
		f := 1.0
		for i := 0; i < delay; i++ {
			if idx := d.round + i - base; idx < len(r.rewards) {
				rew += f * r.rewards[idx]
			}
			f *= 0.95
		}
		r.policy.Reinforce(d.candidates, d.chosen, rew)
		cut++
	}
	r.pending = r.pending[cut:]
	if len(r.rewards) > 4096 && len(r.pending) == 0 {
		r.rewards = r.rewards[len(r.rewards)-64:]
	}
}

func (r *RLSched) choose(ctx *sched.Context, t *job.Task, candidates []int) (int, int, bool) {
	fit := make([]int, 0, len(candidates))
	for _, si := range candidates {
		dev := ctx.Cluster.Server(si).LeastLoadedDevice()
		if ctx.Cluster.Fits(si, dev.ID(), t.Demand, t.GPUShare, ctx.HR) {
			fit = append(fit, si)
		}
	}
	if len(fit) == 0 {
		return 0, 0, false
	}
	if len(fit) > 16 {
		sort.SliceStable(fit, func(i, k int) bool {
			a := ctx.Cluster.Server(fit[i]).OverloadDegree()
			b := ctx.Cluster.Server(fit[k]).OverloadDegree()
			if a != b {
				return a < b
			}
			return fit[i] < fit[k]
		})
		fit = fit[:16]
	}
	feats := make([][]float64, len(fit))
	for i, si := range fit {
		feats[i] = r.features(ctx, t, si)
	}
	if r.round <= r.warmup {
		// Warm-up imitation of least-loaded placement so the policy starts
		// from something functional.
		best := 0
		for i, si := range fit {
			if ctx.Cluster.Server(si).OverloadDegree() < ctx.Cluster.Server(fit[best]).OverloadDegree() {
				best = i
			}
		}
		r.policy.Imitate(feats, best)
		si := fit[best]
		return si, ctx.Cluster.Server(si).LeastLoadedDevice().ID(), true
	}
	chosen, _ := r.policy.Choose(feats, true)
	r.pending = append(r.pending, rlDecision{round: r.round, candidates: feats, chosen: chosen})
	si := fit[chosen]
	return si, ctx.Cluster.Server(si).LeastLoadedDevice().ID(), true
}

func (r *RLSched) features(ctx *sched.Context, t *job.Task, si int) []float64 {
	srv := ctx.Cluster.Server(si)
	u := srv.Utilization()
	wait := 0.0
	if ctx.IsWaiting(t) {
		wait = (ctx.Now - t.QueuedAt) / 3600
		if wait > 24 {
			wait = 24
		}
	}
	return []float64{
		t.ComputeSec / 60,
		float64(len(t.Children())) / 8,
		wait / 24,
		t.Job.ProgressFraction(),
		u[cluster.ResGPU],
		u[cluster.ResCPU],
		u[cluster.ResMemory],
		u[cluster.ResBandwidth],
		srv.LeastLoadedDevice().Utilization(),
	}
}
