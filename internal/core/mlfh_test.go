package core

import (
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/learncurve"
	"mlfs/internal/sched"
)

func TestMLFHName(t *testing.T) {
	if NewMLFH().Name() != "mlf-h" {
		t.Fatal("name")
	}
}

func TestMLFHPlacesByPriority(t *testing.T) {
	var next job.TaskID
	// Cluster with exactly 2 free GPU slots: only one of the two 2-task
	// jobs fits; the urgent one must win.
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	low := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 1}, &next)
	high := buildJob(t, job.Spec{ID: 2, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 2, Urgency: 10}, &next)
	var waiting []*job.Task
	waiting = append(waiting, low.Tasks...)
	waiting = append(waiting, high.Tasks...)
	ctx := sched.NewContext(0, cl, []*job.Job{low, high}, waiting, 0.9, 0.9)

	m := NewMLFH()
	m.Schedule(ctx)
	if !ctx.FullyPlaced(high) {
		t.Fatal("urgent job must be placed first")
	}
	if ctx.FullyPlaced(low) {
		t.Fatal("low-urgency job cannot fit after the urgent one")
	}
}

func TestMLFHCoLocatesCommunicatingTasks(t *testing.T) {
	var next job.TaskID
	// 4-task sequential job, 2 servers with 4 GPUs each: the RIAL chooser
	// with the bandwidth term must pack all tasks on one server.
	cl := cluster.New(cluster.Config{Servers: 2, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	j := buildJob(t, job.Spec{ID: 1, Family: learncurve.AlexNet, Comm: job.AllReduce,
		ModelParallel: 4, Urgency: 5, CommVolWW: 100}, &next)
	ctx := sched.NewContext(0, cl, []*job.Job{j},
		append([]*job.Task(nil), j.Tasks...), 0.9, 0.9)
	m := NewMLFH()
	m.Schedule(ctx)
	if !ctx.FullyPlaced(j) {
		t.Fatal("job must be placed")
	}
	servers := map[int]bool{}
	for _, task := range j.Tasks {
		servers[cl.Lookup(task.ID.Ref()).Server] = true
	}
	if len(servers) != 1 {
		t.Fatalf("bandwidth-aware placement must co-locate: spread over %d servers", len(servers))
	}
}

func TestMLFHRelievesOverload(t *testing.T) {
	var next job.TaskID
	cl := cluster.New(cluster.Config{Servers: 2, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 16, MemoryCapacity: 64, BWCapacity: 1200})
	// Two 1-task jobs crammed on server 0 with CPU demand pushing it over
	// h_r; server 1 is empty.
	a := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 1, Urgency: 5, CPUPerTask: 8}, &next)
	b := buildJob(t, job.Spec{ID: 2, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 1, Urgency: 5, CPUPerTask: 8}, &next)
	if err := cl.Place(a.Tasks[0].ID.Ref(), 0, 0, a.Tasks[0].Demand, a.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(b.Tasks[0].ID.Ref(), 0, 1, b.Tasks[0].Demand, b.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	if !cl.Server(0).Overloaded(0.9) {
		t.Fatal("setup: server 0 must be overloaded (16/16 CPU)")
	}
	ctx := sched.NewContext(0, cl, []*job.Job{a, b}, nil, 0.9, 0.9)
	m := NewMLFH()
	m.Schedule(ctx)
	if cl.Server(0).Overloaded(0.9) {
		t.Fatal("MLF-H must relieve the overloaded server")
	}
	if ctx.Migrations == 0 {
		t.Fatal("a migration must have happened")
	}
	if cl.NumTasks() != 2 {
		t.Fatal("both tasks must remain placed")
	}
}

func TestMLFHMigrationDisabled(t *testing.T) {
	var next job.TaskID
	cl := cluster.New(cluster.Config{Servers: 2, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 16, MemoryCapacity: 64, BWCapacity: 1200})
	a := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 1, Urgency: 5, CPUPerTask: 8}, &next)
	b := buildJob(t, job.Spec{ID: 2, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 1, Urgency: 5, CPUPerTask: 8}, &next)
	for i, j := range []*job.Job{a, b} {
		if err := cl.Place(j.Tasks[0].ID.Ref(), 0, i, j.Tasks[0].Demand, j.Tasks[0].GPUShare); err != nil {
			t.Fatal(err)
		}
	}
	ctx := sched.NewContext(0, cl, []*job.Job{a, b}, nil, 0.9, 0.9)
	m := NewMLFH()
	m.DisableMigration = true
	m.Schedule(ctx)
	if ctx.Migrations != 0 || ctx.Evictions != 0 {
		t.Fatal("migration-disabled MLF-H must not move tasks (Fig 8 ablation)")
	}
	if !cl.Server(0).Overloaded(0.9) {
		t.Fatal("server must remain overloaded")
	}
}

func TestMLFHLeavesVictimsWhenNoDestination(t *testing.T) {
	var next job.TaskID
	// Single server, overloaded: no underloaded destination exists. Under
	// the simulator's gang semantics requeueing a running task would
	// stall its whole job, so MLF-H leaves the victim in place (see the
	// deviation note on RelieveOverloads).
	cl := cluster.New(cluster.Config{Servers: 1, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 16, MemoryCapacity: 64, BWCapacity: 1200})
	a := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 1, Urgency: 5, CPUPerTask: 9}, &next)
	b := buildJob(t, job.Spec{ID: 2, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 1, Urgency: 5, CPUPerTask: 9}, &next)
	for i, j := range []*job.Job{a, b} {
		if err := cl.Place(j.Tasks[0].ID.Ref(), 0, i, j.Tasks[0].Demand, j.Tasks[0].GPUShare); err != nil {
			t.Fatal(err)
		}
	}
	ctx := sched.NewContext(0, cl, []*job.Job{a, b}, nil, 0.9, 0.9)
	m := NewMLFH()
	m.Schedule(ctx)
	if ctx.Evictions != 0 || ctx.Migrations != 0 {
		t.Fatal("with no underloaded destination nothing may move")
	}
	if cl.NumTasks() != 2 {
		t.Fatal("both tasks must stay placed")
	}
}

func TestMLFHProtectsHighPriorityFromMigration(t *testing.T) {
	var next job.TaskID
	cl := cluster.New(cluster.Config{Servers: 2, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 16, MemoryCapacity: 64, BWCapacity: 1200})
	urgent := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 1, Urgency: 10, CPUPerTask: 8}, &next)
	casual := buildJob(t, job.Spec{ID: 2, Family: learncurve.MLP, Comm: job.AllReduce,
		ModelParallel: 1, Urgency: 1, CPUPerTask: 8}, &next)
	if err := cl.Place(urgent.Tasks[0].ID.Ref(), 0, 0, urgent.Tasks[0].Demand, urgent.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(casual.Tasks[0].ID.Ref(), 0, 1, casual.Tasks[0].Demand, casual.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	ctx := sched.NewContext(0, cl, []*job.Job{urgent, casual}, nil, 0.9, 0.9)
	m := NewMLFH()
	m.Schedule(ctx)
	// The low-priority task must be the one that moved.
	pUrgent := cl.Lookup(urgent.Tasks[0].ID.Ref())
	pCasual := cl.Lookup(casual.Tasks[0].ID.Ref())
	if pUrgent.Server != 0 {
		t.Fatal("high-priority task must not be selected for migration (§3.3.3)")
	}
	if pCasual.Server != 1 {
		t.Fatal("low-priority task must have been migrated to server 1")
	}
}

func TestMLFHSchedulesEndToEnd(t *testing.T) {
	// Integration smoke: MLF-H drives a full small simulation without
	// deadlock and beats nothing-placed trivially.
	var next job.TaskID
	_ = next
	runEndToEnd(t, NewMLFH(), 25, 21)
}

// TestMLFHReliefRoundAllocs pins that a steady-state MLF-H round with
// migrations allocates nothing: each run puts the tasks back onto the
// overloaded server 0, and the round migrates one of them out again.
func TestMLFHReliefRoundAllocs(t *testing.T) {
	var next job.TaskID
	cl := cluster.New(cluster.Config{Servers: 3, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 16, MemoryCapacity: 64, BWCapacity: 1200})
	var jobs []*job.Job
	for id := 1; id <= 3; id++ {
		j := buildJob(t, job.Spec{ID: job.ID(id), Family: learncurve.MLP, Comm: job.AllReduce,
			ModelParallel: 1, Urgency: id, CPUPerTask: 6, CommVolWW: 50}, &next)
		j.SimSlot = id - 1
		if err := cl.Place(j.Tasks[0].ID.Ref(), 0, id-1, j.Tasks[0].Demand, j.Tasks[0].GPUShare); err != nil {
			t.Fatal(err)
		}
		j.PlacedTasks = 1
		jobs = append(jobs, j)
	}
	ctx := sched.NewContext(0, cl, jobs, nil, 0.9, 0.9)
	m := NewMLFH()
	round := func() {
		m.Schedule(ctx)
		for i, j := range jobs {
			if err := ctx.Migrate(j.Tasks[0], 0, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // sizes the scratch buffers
	before := ctx.Migrations
	const runs = 100
	if got := testing.AllocsPerRun(runs, round); got != 0 {
		t.Fatalf("steady-state relief round allocates: %v allocs/round", got)
	}
	// Each run migrates a victim out and back: at least two per run.
	if ctx.Migrations-before < 2*runs {
		t.Fatalf("vacuous: %d migrations in %d rounds", ctx.Migrations-before, runs)
	}
}
