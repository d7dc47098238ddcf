package mlfrl

import (
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/core"
	"mlfs/internal/job"
	"mlfs/internal/learncurve"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
	"mlfs/internal/sim"
	"mlfs/internal/trace"
)

func testCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{Servers: 4, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
}

func buildJob(t *testing.T, id int64, gpus int, next *job.TaskID) *job.Job {
	t.Helper()
	j, err := job.Build(job.Spec{
		ID: job.ID(id), Family: learncurve.ResNet, Comm: job.AllReduce,
		ModelParallel: gpus, MaxIterations: 50, IterSec: 10, TotalParams: 50,
		Urgency: 5, Deadline: 24 * 3600,
		Curve: learncurve.Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.02},
	}, next)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestConfigDefaultsApplied(t *testing.T) {
	s := New(Config{})
	if s.cfg.Eta != 0.95 || s.cfg.LR != 3e-4 || s.cfg.MaxCandidates != 16 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
	if s.cfg.Betas != DefaultConfig().Betas {
		t.Fatal("beta defaults")
	}
	if s.Name() != "mlf-rl" {
		t.Fatal("name")
	}
}

func TestImitationPhaseFollowsHeuristic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ImitationRounds = 1000
	s := New(cfg)
	var next job.TaskID
	j := buildJob(t, 1, 4, &next)
	ctx := sched.NewContext(0, testCluster(), []*job.Job{j},
		append([]*job.Task(nil), j.Tasks...), 0.9, 0.9)
	s.Schedule(ctx)
	if !ctx.FullyPlaced(j) {
		t.Fatal("job must be placed during imitation")
	}
	if s.Imitated() == 0 {
		t.Fatal("imitation updates must be recorded")
	}
	if s.Trained() {
		t.Fatal("not trained after one round of 1000")
	}
	// During imitation the placement must equal what MLF-H alone produces.
	h := core.NewMLFH()
	var next2 job.TaskID
	j2 := buildJob(t, 1, 4, &next2)
	ctx2 := sched.NewContext(0, testCluster(), []*job.Job{j2},
		append([]*job.Task(nil), j2.Tasks...), 0.9, 0.9)
	h.Schedule(ctx2)
	for i := range j.Tasks {
		a := ctx.Cluster.Lookup(j.Tasks[i].ID.Ref())
		b := ctx2.Cluster.Lookup(j2.Tasks[i].ID.Ref())
		if a == nil || b == nil || a.Server != b.Server {
			t.Fatalf("imitation placement diverged from MLF-H at task %d", i)
		}
	}
}

func TestSwitchToPolicyAndReinforce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ImitationRounds = 0 // straight to RL
	cfg.RewardDelayRounds = 2
	s := New(cfg)
	cl := testCluster()
	var next job.TaskID
	active := []*job.Job{}
	// Drive several rounds with fresh jobs so decisions accumulate.
	for round := 0; round < 6; round++ {
		j := buildJob(t, int64(round+1), 2, &next)
		active = append(active, j)
		var waiting []*job.Task
		for _, a := range active {
			for _, task := range a.Tasks {
				if cl.Lookup(task.ID.Ref()) == nil {
					waiting = append(waiting, task)
				}
			}
		}
		ctx := sched.NewContext(float64(round*60), cl, active, waiting, 0.9, 0.9)
		ctx.Completed = nil
		s.Schedule(ctx)
	}
	if !s.Trained() {
		t.Fatal("ImitationRounds=0 must mean trained immediately")
	}
	if s.Updates() == 0 {
		t.Fatal("REINFORCE updates must have been applied after the reward delay")
	}
}

func TestRewardComposition(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg)
	var next job.TaskID
	good := buildJob(t, 1, 1, &next)
	good.State = job.Finished
	good.Arrival, good.FinishTime = 0, 600
	good.Deadline = 3600
	good.AccuracyTarget = 0.5
	good.AccuracyAtDeadline = 0.8

	bad := buildJob(t, 2, 1, &next)
	bad.State = job.Finished
	bad.Arrival, bad.FinishTime = 0, 100000
	bad.Deadline = 3600
	bad.AccuracyTarget = 0.9
	bad.AccuracyAtDeadline = 0.2

	ctxGood := sched.NewContext(0, testCluster(), nil, nil, 0.9, 0.9)
	ctxGood.Completed = []*job.Job{good}
	ctxBad := sched.NewContext(0, testCluster(), nil, nil, 0.9, 0.9)
	ctxBad.Completed = []*job.Job{bad}
	ctxBad.RecentBandwidthMB = 1 << 20

	if s.rewardOf(ctxGood) <= s.rewardOf(ctxBad) {
		t.Fatal("fast accurate completion must earn a higher reward (Eq. 7)")
	}
}

func TestFeatureVectorShape(t *testing.T) {
	var next job.TaskID
	j := buildJob(t, 1, 2, &next)
	ctx := sched.NewContext(0, testCluster(), []*job.Job{j},
		append([]*job.Task(nil), j.Tasks...), 0.9, 0.9)
	prios := core.ComputePriorities(ctx, core.DefaultPriorityParams())
	f := Features(ctx, j.Tasks[0], 0, prios)
	if len(f) != FeatureSize {
		t.Fatalf("feature size %d, want %d", len(f), FeatureSize)
	}
	for i, v := range f {
		if v != v { // NaN
			t.Fatalf("feature %d is NaN", i)
		}
	}
}

func TestMLFRLEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ImitationRounds = 20
	simulator, err := sim.New(sim.Config{
		Cluster: cluster.Config{Servers: 4, GPUsPerServer: 4, GPUCapacity: 1,
			CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200},
		Source:    trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: 25, Seed: 31, DurationSec: 2 * 3600})),
		Scheduler: New(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkHealthy(t, res, 25)
}

func checkHealthy(t *testing.T, res *metrics.Result, jobs int) {
	t.Helper()
	if res.Jobs != jobs {
		t.Fatalf("jobs = %d", res.Jobs)
	}
	if res.Counters.Truncated > jobs/4 {
		t.Fatalf("%d truncated — scheduler wedged", res.Counters.Truncated)
	}
	if res.AvgJCTSec <= 0 || res.AvgAccuracy <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}
