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
// the state, and there is no overload handling. Its first 100 rounds
// imitate least-loaded placement so the policy starts from something
// functional.
type RLSched struct {
	learner *nn.Learner

	fit []int //mlfs:derived scratch: the candidate shortlist
}

// NewRLSched returns the RL baseline with a deterministic seed.
func NewRLSched(seed int64) *RLSched {
	// 100 warm-up rounds; credit 5 rounds on, discounted by η = 0.95;
	// one optimiser step per decision.
	return &RLSched{
		learner: nn.NewLearner(nn.NewPolicy(rlFeatureSize, []int{24, 12}, 1e-3, seed), 100, 5, 0.95, 1),
	}
}

// Name implements sched.Scheduler.
func (*RLSched) Name() string { return "rl" }

// Schedule implements sched.Scheduler.
func (r *RLSched) Schedule(ctx *sched.Context) {
	// JCT-only reward: 1/(1 + avg JCT of the window's completions).
	reward := 0.0
	if n := len(ctx.Completed); n > 0 {
		var sum float64
		for _, j := range ctx.Completed {
			sum += j.JCT()
		}
		reward = 1 / (1 + sum/float64(n)/3600)
	}
	r.learner.BeginRound(reward)

	jobs := ctx.PendingJobs()
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	for _, j := range jobs {
		ctx.PlaceGang(ctx.QueuedTasksOf(j), r.choose)
	}
}

func (r *RLSched) choose(ctx *sched.Context, t *job.Task, candidates []int) (int, int, bool) {
	fit := sched.FitShortlist(r.fit, ctx, t, candidates, 16)
	r.fit = fit
	if len(fit) == 0 {
		return 0, 0, false
	}
	x := r.learner.Policy().Candidates(len(fit))
	for i, si := range fit {
		rlFeaturesInto(x.Row(i), ctx, t, si)
	}
	var chosen int
	if r.learner.Imitating() {
		// Warm-up: imitate least-loaded placement.
		for i, si := range fit {
			if ctx.Cluster.Server(si).OverloadDegree() < ctx.Cluster.Server(fit[chosen]).OverloadDegree() {
				chosen = i
			}
		}
		r.learner.Imitate(x, chosen)
	} else {
		chosen = r.learner.Decide(x, true)
	}
	si := fit[chosen]
	return si, ctx.Cluster.Server(si).LeastLoadedDevice().ID(), true
}

// rlFeaturesInto writes the RL baseline's features for placing t on si
// into dst (length rlFeatureSize).
func rlFeaturesInto(dst []float64, ctx *sched.Context, t *job.Task, si int) {
	srv := ctx.Cluster.Server(si)
	u := srv.Utilization()
	wait := 0.0
	if ctx.IsWaiting(t) {
		wait = (ctx.Now - t.QueuedAt) / 3600
		if wait > 24 {
			wait = 24
		}
	}
	f := [rlFeatureSize]float64{
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
	copy(dst, f[:])
}
