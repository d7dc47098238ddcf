package sched

import (
	"slices"
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/learncurve"
)

func testCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Servers: 4, GPUsPerServer: 2, GPUCapacity: 1,
		CPUCapacity: 16, MemoryCapacity: 64, BWCapacity: 200,
	})
}

func testJob(t *testing.T, id int64, gpus int, next *job.TaskID) *job.Job {
	t.Helper()
	j, err := job.Build(job.Spec{
		ID: job.ID(id), Family: learncurve.ResNet, Comm: job.AllReduce,
		ModelParallel: gpus, MaxIterations: 10, IterSec: 4, TotalParams: 8,
		Curve: learncurve.Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.05},
	}, next)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func newCtx(t *testing.T, jobs ...*job.Job) *Context {
	t.Helper()
	var waiting []*job.Task
	for _, j := range jobs {
		waiting = append(waiting, j.Tasks...)
	}
	return NewContext(0, testCluster(), jobs, waiting, 0.9, 0.9)
}

func TestContextPlace(t *testing.T) {
	var next job.TaskID
	j := testJob(t, 1, 2, &next)
	ctx := newCtx(t, j)
	if ctx.NumWaiting() != 2 {
		t.Fatalf("NumWaiting = %d", ctx.NumWaiting())
	}
	if err := ctx.Place(j.Tasks[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	if ctx.IsWaiting(j.Tasks[0]) || !ctx.IsWaiting(j.Tasks[1]) {
		t.Fatal("waiting set wrong after Place")
	}
	if ctx.Placements != 1 {
		t.Fatalf("Placements = %d", ctx.Placements)
	}
	if err := ctx.Place(j.Tasks[0], 0, 0); err == nil {
		t.Fatal("placing a non-queued task must fail")
	}
	if ctx.FullyPlaced(j) {
		t.Fatal("job not fully placed yet")
	}
	if err := ctx.Place(j.Tasks[1], 1, 0); err != nil {
		t.Fatal(err)
	}
	if !ctx.FullyPlaced(j) {
		t.Fatal("job must be fully placed")
	}
}

func TestContextMigrate(t *testing.T) {
	var next job.TaskID
	j := testJob(t, 1, 1, &next)
	ctx := newCtx(t, j)
	task := j.Tasks[0]
	if err := ctx.Migrate(task, 1, 0); err == nil {
		t.Fatal("migrating an unplaced task must fail")
	}
	if err := ctx.Place(task, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Migrate(task, 1, 1); err != nil {
		t.Fatal(err)
	}
	p := ctx.Cluster.Lookup(task.ID.Ref())
	if p.Server != 1 || p.Device != 1 {
		t.Fatalf("placement after migrate = %+v", p)
	}
	if ctx.Migrations != 1 || ctx.MigratedMB <= 0 {
		t.Fatalf("migration accounting: n=%d mb=%v", ctx.Migrations, ctx.MigratedMB)
	}
	// Self-migration is a no-op.
	if err := ctx.Migrate(task, 1, 1); err != nil {
		t.Fatal(err)
	}
	if ctx.Migrations != 1 {
		t.Fatal("self-migration must not count")
	}
}

func TestContextEvict(t *testing.T) {
	var next job.TaskID
	j := testJob(t, 1, 1, &next)
	ctx := newCtx(t, j)
	task := j.Tasks[0]
	if err := ctx.Evict(task); err == nil {
		t.Fatal("evicting an unplaced task must fail")
	}
	if err := ctx.Place(task, 0, 0); err != nil {
		t.Fatal(err)
	}
	ctx.Now = 42
	if err := ctx.Evict(task); err != nil {
		t.Fatal(err)
	}
	if !ctx.IsWaiting(task) {
		t.Fatal("evicted task must be queued")
	}
	if task.QueuedAt != 42 {
		t.Fatalf("QueuedAt = %v", task.QueuedAt)
	}
	if ctx.Evictions != 1 {
		t.Fatal("eviction not counted")
	}
}

func TestContextStopJobIdempotent(t *testing.T) {
	var next job.TaskID
	j := testJob(t, 1, 1, &next)
	ctx := newCtx(t, j)
	ctx.StopJob(j)
	ctx.StopJob(j)
	if len(ctx.Stopped) != 1 {
		t.Fatalf("Stopped = %d entries", len(ctx.Stopped))
	}
}

func TestOverloadedFlag(t *testing.T) {
	var next job.TaskID
	j := testJob(t, 1, 1, &next)
	ctx := newCtx(t, j)
	if !ctx.Overloaded() {
		t.Fatal("queued tasks mean overloaded (§3.5)")
	}
	if err := ctx.Place(j.Tasks[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	if ctx.Overloaded() {
		t.Fatal("empty queue, low utilisation: not overloaded")
	}
}

func TestPlaceGangAtomic(t *testing.T) {
	var next job.TaskID
	// 4 servers x 2 GPUs = 8 GPUs; a 32-task job cannot fit.
	big := testJob(t, 1, 32, &next)
	ctx := newCtx(t, big)
	if ctx.PlaceGang(ctx.QueuedTasksOf(big), FirstFit) {
		t.Fatal("32 tasks cannot fit on 8 GPUs")
	}
	if ctx.NumWaiting() != 32 {
		t.Fatalf("rollback failed: %d waiting", ctx.NumWaiting())
	}
	if ctx.Cluster.NumTasks() != 0 {
		t.Fatal("rollback left tasks placed")
	}
	if ctx.Placements != 0 {
		t.Fatalf("rollback must restore Placements, got %d", ctx.Placements)
	}
	small := testJob(t, 2, 4, &next)
	ctx2 := newCtx(t, small)
	if !ctx2.PlaceGang(ctx2.QueuedTasksOf(small), FirstFit) {
		t.Fatal("4 tasks must fit on 8 GPUs")
	}
	if !ctx2.FullyPlaced(small) {
		t.Fatal("gang not fully placed")
	}
	if ctx2.Placements != 4 {
		t.Fatalf("Placements = %d", ctx2.Placements)
	}
}

func TestFirstFitSkipsFullServers(t *testing.T) {
	var next job.TaskID
	a := testJob(t, 1, 2, &next)
	b := testJob(t, 2, 2, &next)
	ctx := newCtx(t, a, b)
	// Each task uses 0.75 of a device: one per device at hr=0.9, so
	// FirstFit must never double-place on the same device.
	s, d, ok := FirstFit(ctx, a.Tasks[0], ctx.Cluster.Underloaded(ctx.HR))
	if !ok {
		t.Fatal("FirstFit found nothing on an empty cluster")
	}
	if err := ctx.Place(a.Tasks[0], s, d); err != nil {
		t.Fatal(err)
	}
	s2, d2, ok := FirstFit(ctx, a.Tasks[1], ctx.Cluster.Underloaded(ctx.HR))
	if !ok {
		t.Fatal("second FirstFit failed")
	}
	if s2 == s && d2 == d {
		t.Fatal("FirstFit reused a full device")
	}
}

func TestLeastLoadedFit(t *testing.T) {
	var next job.TaskID
	j := testJob(t, 1, 3, &next)
	ctx := newCtx(t, j)
	ctx.HR = 1.0
	// Load server 0 with CPU so it has the highest overload degree.
	if err := ctx.Cluster.Place(999, 0, 0, cluster.Vec{cluster.ResCPU: 8}, 0); err != nil {
		t.Fatal(err)
	}
	s, _, ok := LeastLoadedFit(ctx, j.Tasks[0], ctx.Cluster.Underloaded(ctx.HR))
	if !ok {
		t.Fatal("LeastLoadedFit failed")
	}
	if s == 0 {
		t.Fatal("LeastLoadedFit chose the most loaded server")
	}
}

func TestFitShortlist(t *testing.T) {
	var next job.TaskID
	full, half, probe := testJob(t, 1, 2, &next), testJob(t, 2, 1, &next), testJob(t, 3, 1, &next)
	ctx := newCtx(t, full, half, probe)
	// Server 0 has no free GPU; server 2 is loaded but fits; 1 and 3 idle.
	for i, task := range full.Tasks {
		if err := ctx.Place(task, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctx.Place(half.Tasks[0], 2, 0); err != nil {
		t.Fatal(err)
	}
	candidates := []int{0, 1, 2, 3}
	var scratch []int
	for _, tc := range []struct {
		max  int
		want []int
	}{
		{4, []int{1, 2, 3}}, // no more than max fit: candidate order
		{2, []int{1, 3}},    // least overloaded, the tie by index
		{1, []int{1}},
	} {
		scratch = FitShortlist(scratch, ctx, probe.Tasks[0], candidates, tc.max)
		if !slices.Equal(scratch, tc.want) {
			t.Errorf("max %d: shortlist %v, want %v", tc.max, scratch, tc.want)
		}
	}
	if !slices.Equal(candidates, []int{0, 1, 2, 3}) {
		t.Fatalf("candidates modified: %v", candidates)
	}
}

func TestPendingJobsOrder(t *testing.T) {
	var next job.TaskID
	a := testJob(t, 1, 2, &next) // tasks 0,1
	b := testJob(t, 2, 2, &next) // tasks 2,3
	ctx := newCtx(t, a, b)
	got := ctx.PendingJobs()
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("PendingJobs order wrong")
	}
	// Place all of a: only b remains pending.
	ctx.HR = 1.0
	if !ctx.PlaceGang(ctx.QueuedTasksOf(a), FirstFit) {
		t.Fatal("gang place failed")
	}
	got = ctx.PendingJobs()
	if len(got) != 1 || got[0] != b {
		t.Fatal("PendingJobs must exclude fully placed jobs")
	}
}

func TestTaskStateMB(t *testing.T) {
	if TaskStateMB(&job.Task{Params: 10}) != 80 {
		t.Fatal("10M params -> 40MB weights + 40MB optimiser state")
	}
}

func TestTaskByRef(t *testing.T) {
	var next job.TaskID
	j := testJob(t, 1, 2, &next)
	ctx := newCtx(t, j)
	for _, task := range j.Tasks {
		if ctx.TaskByRef(task.ID.Ref()) != task {
			t.Fatal("TaskByRef mismatch")
		}
	}
}

func TestEvictJob(t *testing.T) {
	var next job.TaskID
	j := testJob(t, 1, 2, &next)
	ctx := newCtx(t, j)
	ctx.HR = 1.0
	if !ctx.PlaceGang(ctx.QueuedTasksOf(j), FirstFit) {
		t.Fatal("gang place failed")
	}
	if n := ctx.EvictJob(j); n != 2 {
		t.Fatalf("EvictJob = %d, want 2", n)
	}
	if ctx.Cluster.NumTasks() != 0 {
		t.Fatal("tasks still placed after EvictJob")
	}
	if ctx.NumWaiting() != 2 {
		t.Fatal("tasks must be back in the queue")
	}
	// Evicting an unplaced job is a no-op.
	if n := ctx.EvictJob(j); n != 0 {
		t.Fatalf("second EvictJob = %d", n)
	}
}

func TestMigrateRollbackOnBadDestination(t *testing.T) {
	var next job.TaskID
	j := testJob(t, 1, 1, &next)
	ctx := newCtx(t, j)
	task := j.Tasks[0]
	if err := ctx.Place(task, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Destination device out of range: Place fails, rollback restores the
	// original placement.
	if err := ctx.Migrate(task, 1, 99); err == nil {
		t.Fatal("bad destination must error")
	}
	p := ctx.Cluster.Lookup(task.ID.Ref())
	if p == nil || p.Server != 0 || p.Device != 0 {
		t.Fatalf("rollback failed: %+v", p)
	}
	if ctx.Migrations != 0 {
		t.Fatal("failed migration must not be counted")
	}
}
