package baselines

import (
	"math"
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/learncurve"
	"mlfs/internal/metrics"
	"mlfs/internal/nn"
	"mlfs/internal/sched"
	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

func testCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{Servers: 4, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
}

func buildJob(t *testing.T, id int64, gpus int, next *job.TaskID, mut func(*job.Spec)) *job.Job {
	t.Helper()
	spec := job.Spec{
		ID: job.ID(id), Family: learncurve.ResNet, Comm: job.AllReduce,
		ModelParallel: gpus, MaxIterations: 100, IterSec: 10, TotalParams: 50,
		Urgency: 5, Deadline: 24 * 3600,
		Curve: learncurve.Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.02},
	}
	if mut != nil {
		mut(&spec)
	}
	j, err := job.Build(spec, next)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func ctxWith(jobs ...*job.Job) *sched.Context {
	var waiting []*job.Task
	for _, j := range jobs {
		for _, t := range j.Tasks {
			waiting = append(waiting, t)
		}
	}
	return sched.NewContext(0, testCluster(), jobs, waiting, 0.9, 0.9)
}

func TestNames(t *testing.T) {
	cases := map[string]sched.Scheduler{
		"tensorflow": NewBorgFair(),
		"slaq":       NewSLAQ(),
		"tiresias":   NewTiresias(),
		"graphene":   NewGraphene(),
		"hypersched": NewHyperSched(),
		"gandiva":    NewGandiva(),
		"rl":         NewRLSched(1),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Fatalf("Name = %q, want %q", s.Name(), want)
		}
	}
}

func TestAllBaselinesEndToEnd(t *testing.T) {
	scheds := []func() sched.Scheduler{
		func() sched.Scheduler { return NewBorgFair() },
		func() sched.Scheduler { return NewSLAQ() },
		func() sched.Scheduler { return NewTiresias() },
		func() sched.Scheduler { return NewGraphene() },
		func() sched.Scheduler { return NewHyperSched() },
		func() sched.Scheduler { return NewGandiva() },
		func() sched.Scheduler { return NewRLSched(7) },
	}
	for _, mk := range scheds {
		s := mk()
		simulator, err := sim.New(sim.Config{
			Cluster: cluster.Config{Servers: 4, GPUsPerServer: 4, GPUCapacity: 1,
				CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200},
			Source:    trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: 25, Seed: 51, DurationSec: 2 * 3600})),
			Scheduler: s,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		res, err := simulator.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		assertHealthy(t, s.Name(), res, 25)
	}
}

func assertHealthy(t *testing.T, name string, res *metrics.Result, jobs int) {
	t.Helper()
	if res.Jobs != jobs {
		t.Fatalf("%s: jobs = %d", name, res.Jobs)
	}
	if res.Counters.Truncated > jobs/4 {
		t.Fatalf("%s: %d truncated", name, res.Counters.Truncated)
	}
	if res.AvgJCTSec <= 0 {
		t.Fatalf("%s: degenerate", name)
	}
}

func TestBorgFairPrefersLeastServed(t *testing.T) {
	var next job.TaskID
	// a is half placed, b untouched: fair share places b's gang first
	// when capacity is tight.
	a := buildJob(t, 1, 2, &next, nil)
	b := buildJob(t, 2, 2, &next, nil)
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 3, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	if err := cl.Place(a.Tasks[0].ID.Ref(), 0, 0, a.Tasks[0].Demand, a.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	waiting := []*job.Task{a.Tasks[1], b.Tasks[0], b.Tasks[1]}
	ctx := sched.NewContext(0, cl, []*job.Job{a, b}, waiting, 0.9, 0.9)
	NewBorgFair().Schedule(ctx)
	if !ctx.FullyPlaced(b) {
		t.Fatal("fair scheduler must serve the least-served job first")
	}
}

func TestSLAQPrefersSteepestCurve(t *testing.T) {
	var next job.TaskID
	// steep: early iterations, large loss reductions; flat: late.
	steep := buildJob(t, 1, 2, &next, nil)
	flat := buildJob(t, 2, 2, &next, nil)
	flat.Progress = 90
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	var waiting []*job.Task
	waiting = append(waiting, steep.Tasks...)
	waiting = append(waiting, flat.Tasks...)
	ctx := sched.NewContext(0, cl, []*job.Job{steep, flat}, waiting, 0.9, 0.9)
	NewSLAQ().Schedule(ctx)
	if !ctx.FullyPlaced(steep) || ctx.FullyPlaced(flat) {
		t.Fatal("SLAQ must give the slot to the steepest loss-reduction job")
	}
}

func TestTiresiasLeastAttainedService(t *testing.T) {
	var next job.TaskID
	// IterSec 60 keeps the served job's remaining work above the epoch
	// boost threshold, isolating the least-attained-service principle.
	served := buildJob(t, 1, 2, &next, func(s *job.Spec) { s.IterSec = 60 })
	served.Progress = 50 // has consumed plenty of service
	fresh := buildJob(t, 2, 2, &next, func(s *job.Spec) { s.IterSec = 60 })
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	var waiting []*job.Task
	waiting = append(waiting, served.Tasks...)
	waiting = append(waiting, fresh.Tasks...)
	ctx := sched.NewContext(0, cl, []*job.Job{served, fresh}, waiting, 0.9, 0.9)
	NewTiresias().Schedule(ctx)
	if !ctx.FullyPlaced(fresh) || ctx.FullyPlaced(served) {
		t.Fatal("Tiresias must favour the least-attended job")
	}
}

func TestTiresiasEpochBoost(t *testing.T) {
	var next job.TaskID
	// nearly done: remaining work below the epoch -> jumps the queue
	// despite high attained service.
	almost := buildJob(t, 1, 2, &next, nil)
	almost.Progress = 99
	fresh := buildJob(t, 2, 2, &next, nil)
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	var waiting []*job.Task
	waiting = append(waiting, almost.Tasks...)
	waiting = append(waiting, fresh.Tasks...)
	ctx := sched.NewContext(0, cl, []*job.Job{almost, fresh}, waiting, 0.9, 0.9)
	NewTiresias().Schedule(ctx)
	if !ctx.FullyPlaced(almost) {
		t.Fatal("job finishable within the epoch must get the GPUs (Tiresias principle 2)")
	}
}

func TestGraphenePlacesTroublesomeTasksFirst(t *testing.T) {
	var next job.TaskID
	j := buildJob(t, 1, 4, &next, func(s *job.Spec) {
		s.Family = learncurve.AlexNet // sequential chain: head has most descendants
	})
	ctx := ctxWith(j)
	NewGraphene().Schedule(ctx)
	if !ctx.FullyPlaced(j) {
		t.Fatal("job must be placed")
	}
}

func TestHyperSchedPausesConvergedJobs(t *testing.T) {
	var next job.TaskID
	converged := buildJob(t, 1, 2, &next, nil)
	converged.Progress = 99 // no accuracy improvement left
	improving := buildJob(t, 2, 2, &next, nil)
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	var waiting []*job.Task
	waiting = append(waiting, converged.Tasks...)
	waiting = append(waiting, improving.Tasks...)
	ctx := sched.NewContext(0, cl, []*job.Job{converged, improving}, waiting, 0.9, 0.9)
	NewHyperSched().Schedule(ctx)
	if !ctx.FullyPlaced(improving) || ctx.FullyPlaced(converged) {
		t.Fatal("HyperSched must pause the job with no accuracy improvement left")
	}
}

func TestHyperSchedIgnoresExpiredDeadline(t *testing.T) {
	var next job.TaskID
	expired := buildJob(t, 1, 2, &next, func(s *job.Spec) { s.Deadline = 1 })
	live := buildJob(t, 2, 2, &next, nil)
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	var waiting []*job.Task
	waiting = append(waiting, expired.Tasks...)
	waiting = append(waiting, live.Tasks...)
	ctx := sched.NewContext(3600, cl, []*job.Job{expired, live}, waiting, 0.9, 0.9)
	NewHyperSched().Schedule(ctx)
	if !ctx.FullyPlaced(live) {
		t.Fatal("job that can still gain accuracy before its deadline must win")
	}
}

func TestGandivaFIFO(t *testing.T) {
	var next job.TaskID
	first := buildJob(t, 1, 2, &next, nil)
	second := buildJob(t, 2, 2, &next, nil)
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	var waiting []*job.Task
	waiting = append(waiting, second.Tasks...) // order in slice must not matter
	waiting = append(waiting, first.Tasks...)
	ctx := sched.NewContext(0, cl, []*job.Job{first, second}, waiting, 0.9, 0.9)
	NewGandiva().Schedule(ctx)
	if !ctx.FullyPlaced(first) || ctx.FullyPlaced(second) {
		t.Fatal("Gandiva must be FIFO by submission order")
	}
}

func TestGandivaMigratesOverloadedGPU(t *testing.T) {
	var next job.TaskID
	a := buildJob(t, 1, 1, &next, nil)
	b := buildJob(t, 2, 1, &next, nil)
	cl := testCluster()
	// Overload device (0,0) with two tasks.
	if err := cl.Place(a.Tasks[0].ID.Ref(), 0, 0, a.Tasks[0].Demand, a.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(b.Tasks[0].ID.Ref(), 0, 0, b.Tasks[0].Demand, b.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	ctx := sched.NewContext(0, cl, []*job.Job{a, b}, nil, 0.9, 0.9)
	NewGandiva().Schedule(ctx)
	if ctx.Migrations == 0 {
		t.Fatal("Gandiva must migrate off the overloaded GPU")
	}
	pa, pb := cl.Lookup(a.Tasks[0].ID.Ref()), cl.Lookup(b.Tasks[0].ID.Ref())
	if pa.Server == pb.Server && pa.Device == pb.Device {
		t.Fatal("tasks must no longer share the overloaded device")
	}
}

func TestRLSchedLearnsAndPlaces(t *testing.T) {
	r := NewRLSched(3)
	r.learner = nn.NewLearner(r.learner.Policy(), 2, 5, 0.95, 1)
	cl := testCluster()
	var next job.TaskID
	var active []*job.Job
	for round := 0; round < 10; round++ {
		j := buildJob(t, int64(round+1), 2, &next, nil)
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
		r.Schedule(ctx)
	}
	if cl.NumTasks() == 0 {
		t.Fatal("RL baseline never placed anything")
	}
	if r.learner.Updates() == 0 {
		t.Fatal("no policy decision was credited after its reward delay")
	}
}

// TestRLSchedRewardAfterHistoryTrim drives the RL baseline through
// 4,100 rounds, past the point where it once trimmed its reward
// history and through hundreds of turns of its reward ring, and
// requires a decision made afterwards to train on the discounted
// rewards of the five rounds that follow it.
func TestRLSchedRewardAfterHistoryTrim(t *testing.T) {
	r := NewRLSched(1)
	policy := r.learner.Policy()
	// A zero-reward update sets the baseline to 0 without a step, so the
	// matured decision moves it by exactly (1−β)·reward.
	policy.ReinforceBatch(nn.NewMatrix(1, rlFeatureSize), 0, 0)
	const decide = 4100
	for round := 1; round < decide; round++ {
		r.Schedule(sched.NewContext(0, testCluster(), nil, nil, 0.9, 0.9))
	}
	var next job.TaskID
	r.Schedule(ctxWith(buildJob(t, 1, 1, &next, nil)))
	var want float64
	for i := 1; i <= 5; i++ {
		if r.learner.Updates() != 0 {
			t.Fatalf("decision credited %d rounds after it was made, want 5", i-1)
		}
		done := buildJob(t, int64(1+i), 1, &next, nil)
		done.Arrival, done.FinishTime = 0, float64(i)*3600
		ctx := sched.NewContext(0, testCluster(), nil, nil, 0.9, 0.9)
		ctx.Completed = []*job.Job{done}
		want += math.Pow(0.95, float64(i-1)) * (1 / (1 + done.JCT()/3600))
		r.Schedule(ctx)
	}
	if r.learner.Updates() != 1 {
		t.Fatalf("%d decisions credited, want the one single-task decision", r.learner.Updates())
	}
	if got, exp := policy.Baseline, (1-policy.BaselineBeta)*want; got != exp {
		t.Fatalf("baseline %v after the matured decision, want %v (reward %v)", got, exp, want)
	}
}

// TestRLSchedStateBounded runs the RL baseline with a decision in every
// round: its snapshot holds the last five rounds' decisions and rewards,
// so its size does not grow with the run. Between 300 and 600 rounds
// every varint counter in it (round, phase counters, RNG draws) stays
// two bytes wide, so the sizes are equal.
func TestRLSchedStateBounded(t *testing.T) {
	size := func(rounds int) int {
		r := NewRLSched(1)
		var next job.TaskID
		for round := 1; round <= rounds; round++ {
			r.Schedule(ctxWith(buildJob(t, int64(round), 1, &next, nil)))
		}
		w := snapshot.NewWriter()
		r.EncodeState(w)
		return len(w.Bytes())
	}
	if a, b := size(300), size(600); a != b {
		t.Fatalf("rl state is %d bytes after 300 rounds and %d after 600", a, b)
	}
}

// TestRLSchedDecisionZeroAllocs: past the warm-up, a steady-state rl
// decision (shortlist, features, scoring, sampling and recording) and
// the round that credits it allocate nothing.
func TestRLSchedDecisionZeroAllocs(t *testing.T) {
	r := NewRLSched(1)
	var next job.TaskID
	j := buildJob(t, 1, 1, &next, nil)
	ctx := ctxWith(j)
	candidates := []int{0, 1, 2, 3}
	decide := func() {
		r.learner.BeginRound(0.5)
		if _, _, ok := r.choose(ctx, j.Tasks[0], candidates); !ok {
			t.Fatal("no candidate fits an empty cluster")
		}
	}
	// Past the 100-round warm-up and one reward delay, so every feature
	// matrix in flight comes back through the freelist.
	for i := 0; i < 120; i++ {
		decide()
	}
	if a := testing.AllocsPerRun(200, decide); a != 0 {
		t.Fatalf("an rl decision allocates %.1f times, want 0", a)
	}
}

func TestSLAQPreemptsConvergedRunningJob(t *testing.T) {
	var next job.TaskID
	// converged occupies the only slots; steep is queued and outgains it.
	converged := buildJob(t, 1, 2, &next, nil)
	converged.Progress = 95
	steep := buildJob(t, 2, 2, &next, nil)
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	for i, task := range converged.Tasks {
		if err := cl.Place(task.ID.Ref(), 0, i, task.Demand, task.GPUShare); err != nil {
			t.Fatal(err)
		}
	}
	ctx := sched.NewContext(0, cl, []*job.Job{converged, steep},
		append([]*job.Task(nil), steep.Tasks...), 0.9, 0.9)
	NewSLAQ().Schedule(ctx)
	if ctx.Evictions == 0 {
		t.Fatal("SLAQ must preempt the flat-curve running job for the steep queued one")
	}
	if ctx.FullyPlaced(converged) {
		t.Fatal("converged job must have lost its slots")
	}
}

func TestSLAQDoesNotPreemptSteeperRunningJob(t *testing.T) {
	var next job.TaskID
	running := buildJob(t, 1, 2, &next, nil) // fresh: maximal gain
	flatQueued := buildJob(t, 2, 2, &next, nil)
	flatQueued.Progress = 95
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	for i, task := range running.Tasks {
		if err := cl.Place(task.ID.Ref(), 0, i, task.Demand, task.GPUShare); err != nil {
			t.Fatal(err)
		}
	}
	ctx := sched.NewContext(0, cl, []*job.Job{running, flatQueued},
		append([]*job.Task(nil), flatQueued.Tasks...), 0.9, 0.9)
	NewSLAQ().Schedule(ctx)
	if !ctx.FullyPlaced(running) {
		t.Fatal("SLAQ must not preempt a running job that outgains the queue")
	}
}

func TestBorgFairTimeShares(t *testing.T) {
	var next job.TaskID
	served := buildJob(t, 1, 2, &next, nil)
	served.Progress = 10 // has attained service
	fresh := buildJob(t, 2, 2, &next, nil)
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	for i, task := range served.Tasks {
		if err := cl.Place(task.ID.Ref(), 0, i, task.Demand, task.GPUShare); err != nil {
			t.Fatal(err)
		}
	}
	ctx := sched.NewContext(0, cl, []*job.Job{served, fresh},
		append([]*job.Task(nil), fresh.Tasks...), 0.9, 0.9)
	NewBorgFair().Schedule(ctx)
	if ctx.Evictions == 0 {
		t.Fatal("fair scheduler must time-share: the served job yields")
	}
	// A never-served running job must NOT be preempted.
	var next2 job.TaskID
	unserved := buildJob(t, 3, 2, &next2, nil)
	queued := buildJob(t, 4, 2, &next2, nil)
	cl2 := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	for i, task := range unserved.Tasks {
		if err := cl2.Place(task.ID.Ref(), 0, i, task.Demand, task.GPUShare); err != nil {
			t.Fatal(err)
		}
	}
	ctx2 := sched.NewContext(0, cl2, []*job.Job{unserved, queued},
		append([]*job.Task(nil), queued.Tasks...), 0.9, 0.9)
	NewBorgFair().Schedule(ctx2)
	if ctx2.Evictions != 0 {
		t.Fatal("a job that never got a turn must not be preempted")
	}
}

func TestHyperSchedDeadlineCriticality(t *testing.T) {
	var next job.TaskID
	// Both jobs can gain accuracy; the tight-deadline one must win the
	// only slots.
	tight := buildJob(t, 1, 2, &next, func(s *job.Spec) { s.Deadline = 2 * 3600 })
	loose := buildJob(t, 2, 2, &next, func(s *job.Spec) { s.Deadline = 100 * 3600 })
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	var waiting []*job.Task
	waiting = append(waiting, loose.Tasks...) // order must not matter
	waiting = append(waiting, tight.Tasks...)
	ctx := sched.NewContext(0, cl, []*job.Job{tight, loose}, waiting, 0.9, 0.9)
	NewHyperSched().Schedule(ctx)
	if !ctx.FullyPlaced(tight) || ctx.FullyPlaced(loose) {
		t.Fatal("HyperSched must favour achievable gain before the nearest deadline")
	}
}
