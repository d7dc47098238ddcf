package core

import (
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/learncurve"
	"mlfs/internal/sched"
)

func testCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{Servers: 4, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
}

func buildJob(t *testing.T, spec job.Spec, next *job.TaskID) *job.Job {
	t.Helper()
	if spec.Curve == (learncurve.Curve{}) {
		spec.Curve = learncurve.Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.02}
	}
	if spec.MaxIterations == 0 {
		spec.MaxIterations = 100
	}
	if spec.IterSec == 0 {
		spec.IterSec = 10
	}
	if spec.TotalParams == 0 {
		spec.TotalParams = 100
	}
	if spec.Deadline == 0 {
		spec.Deadline = 24 * 3600
	}
	j, err := job.Build(spec, next)
	if err != nil {
		t.Fatal(err)
	}
	// The PriorityEngine caches by simulator slot; job ids are unique
	// within a test, so they serve as distinct slots.
	j.SimSlot = int(spec.ID)
	return j
}

func ctxWith(jobs ...*job.Job) *sched.Context {
	var waiting []*job.Task
	for _, j := range jobs {
		waiting = append(waiting, j.Tasks...)
	}
	return sched.NewContext(0, testCluster(), jobs, waiting, 0.9, 0.9)
}

func TestUrgencyRaisesPriority(t *testing.T) {
	var next job.TaskID
	lo := buildJob(t, job.Spec{ID: 1, Family: learncurve.AlexNet, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 1}, &next)
	hi := buildJob(t, job.Spec{ID: 2, Family: learncurve.AlexNet, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 10}, &next)
	ctx := ctxWith(lo, hi)
	p := ComputePriorities(ctx, DefaultPriorityParams())
	if p.Of(hi.Tasks[0]) <= p.Of(lo.Tasks[0]) {
		t.Fatalf("urgent job must outrank: %v vs %v", p.Of(hi.Tasks[0]), p.Of(lo.Tasks[0]))
	}
	// With urgency disabled (Fig 6 ablation) the two identical jobs tie.
	params := DefaultPriorityParams()
	params.DisableUrgency = true
	p2 := ComputePriorities(ctx, params)
	a, b := p2.Of(hi.Tasks[0]), p2.Of(lo.Tasks[0])
	if a != b {
		t.Fatalf("urgency-disabled priorities must tie: %v vs %v", a, b)
	}
}

func TestEarlierIterationsOutrankLater(t *testing.T) {
	var next job.TaskID
	early := buildJob(t, job.Spec{ID: 1, Family: learncurve.AlexNet, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 5}, &next)
	late := buildJob(t, job.Spec{ID: 2, Family: learncurve.AlexNet, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 5}, &next)
	late.Progress = 80 // deep into training
	ctx := ctxWith(early, late)
	params := DefaultPriorityParams()
	params.Alpha = 1 // isolate the ML component
	p := ComputePriorities(ctx, params)
	if p.Of(early.Tasks[0]) <= p.Of(late.Tasks[0]) {
		t.Fatal("temporal feature: earlier iterations must have higher priority (§3.3.1)")
	}
}

func TestLargerPartitionOutranks(t *testing.T) {
	var next job.TaskID
	j := buildJob(t, job.Spec{ID: 1, Family: learncurve.ResNet, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 5, PartitionWeights: []float64{3, 1},
		// Layered shape for 2 partitions: width 1, so tasks are chained;
		// use the same stage by picking 2 partitions -> sequentialised.
	}, &next)
	// Partition 0 is 3x the size AND has a dependent; both push it up.
	ctx := ctxWith(j)
	params := DefaultPriorityParams()
	params.Alpha = 1
	p := ComputePriorities(ctx, params)
	if p.Of(j.Tasks[0]) <= p.Of(j.Tasks[1]) {
		t.Fatal("larger partition with dependents must outrank")
	}
}

func TestDependentsRaisePriority(t *testing.T) {
	var next job.TaskID
	// Sequential chain: head has the most transitive dependents.
	j := buildJob(t, job.Spec{ID: 1, Family: learncurve.AlexNet, Comm: job.AllReduce,
		ModelParallel: 4, Urgency: 5}, &next)
	ctx := ctxWith(j)
	params := DefaultPriorityParams()
	params.Alpha = 1
	p := ComputePriorities(ctx, params)
	for i := 0; i < 3; i++ {
		if p.Of(j.Tasks[i]) <= p.Of(j.Tasks[i+1]) {
			t.Fatalf("task %d must outrank its descendant %d (Eq. 3)", i, i+1)
		}
	}
}

func TestPSHasHighestPriority(t *testing.T) {
	var next job.TaskID
	j := buildJob(t, job.Spec{ID: 1, Family: learncurve.ResNet, Comm: job.ParameterServer,
		ModelParallel: 4, DataParallel: 2, Urgency: 5}, &next)
	ctx := ctxWith(j)
	p := ComputePriorities(ctx, DefaultPriorityParams())
	var ps *job.Task
	for _, task := range j.Tasks {
		if task.IsPS {
			ps = task
		}
	}
	for _, task := range j.Tasks {
		if task != ps && p.Of(task) > p.Of(ps) {
			t.Fatalf("PS must carry the highest priority in its job (§3.3.1)")
		}
	}
}

func TestDeadlineUrgencyInComputationPriority(t *testing.T) {
	var next job.TaskID
	tight := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 5, Deadline: 2 * 3600}, &next)
	loose := buildJob(t, job.Spec{ID: 2, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 5, Deadline: 100 * 3600}, &next)
	ctx := ctxWith(tight, loose)
	params := DefaultPriorityParams()
	params.Alpha = 0 // isolate computation features
	p := ComputePriorities(ctx, params)
	if p.Of(tight.Tasks[0]) <= p.Of(loose.Tasks[0]) {
		t.Fatal("closer deadline must raise priority (Eq. 4)")
	}
	params.DisableDeadline = true
	p2 := ComputePriorities(ctx, params)
	if p2.Of(tight.Tasks[0]) != p2.Of(loose.Tasks[0]) {
		t.Fatal("with deadline disabled the jobs must tie (Fig 6 ablation)")
	}
}

func TestWaitingTimeRaisesPriority(t *testing.T) {
	var next job.TaskID
	a := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 5}, &next)
	b := buildJob(t, job.Spec{ID: 2, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 5}, &next)
	var waiting []*job.Task
	waiting = append(waiting, a.Tasks...)
	waiting = append(waiting, b.Tasks...)
	// a has waited 2 hours; b just arrived.
	for _, t2 := range a.Tasks {
		t2.QueuedAt = 0
	}
	for _, t2 := range b.Tasks {
		t2.QueuedAt = 7200
	}
	ctx := sched.NewContext(7200, testCluster(), []*job.Job{a, b}, waiting, 0.9, 0.9)
	params := DefaultPriorityParams()
	params.Alpha = 0
	p := ComputePriorities(ctx, params)
	if p.Of(a.Tasks[0]) <= p.Of(b.Tasks[0]) {
		t.Fatal("longer-waiting task must outrank (Eq. 4)")
	}
}

func TestExpiredDeadlineDoesNotFlipSign(t *testing.T) {
	var next job.TaskID
	j := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 5, Deadline: 10}, &next)
	ctx := sched.NewContext(1e6, testCluster(), []*job.Job{j},
		append([]*job.Task(nil), j.Tasks...), 0.9, 0.9)
	p := ComputePriorities(ctx, DefaultPriorityParams())
	if p.Of(j.Tasks[0]) <= 0 {
		t.Fatal("expired deadline must saturate, not go negative")
	}
}

func TestPrioritiesInUnitRange(t *testing.T) {
	var next job.TaskID
	jobs := []*job.Job{
		buildJob(t, job.Spec{ID: 1, Family: learncurve.ResNet, Comm: job.ParameterServer,
			ModelParallel: 8, DataParallel: 2, Urgency: 9}, &next),
		buildJob(t, job.Spec{ID: 2, Family: learncurve.SVM, Comm: job.AllReduce,
			DataParallel: 4, Urgency: 1}, &next),
	}
	ctx := ctxWith(jobs...)
	p := ComputePriorities(ctx, DefaultPriorityParams())
	for _, j := range jobs {
		for _, task := range j.Tasks {
			v := p.Of(task)
			if v < 0 || v > 1.2 {
				t.Fatalf("priority %v outside normalised range", v)
			}
		}
	}
	if p.Of(&job.Task{ID: 99999}) != 0 {
		t.Fatal("unknown task must score 0")
	}
}
