package sched

import (
	"math/rand"
	"slices"
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
)

// TestUnderloadedSetMatchesRescan drives seeded random migrations — to
// down servers and of evicted tasks too, so some fail — and requires
// the maintained set to equal a fresh Cluster.Underloaded after every
// one. It checks that sources left and destinations entered overload
// along the way, the two re-tests a successful migration needs.
func TestUnderloadedSetMatchesRescan(t *testing.T) {
	var srcFreed, dstFilled, failed int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.New(cluster.Config{Servers: 12, GPUsPerServer: 2, GPUCapacity: 1,
			CPUCapacity: 16, MemoryCapacity: 64, BWCapacity: 200})
		var next job.TaskID
		var jobs []*job.Job
		var tasks []*job.Task
		for id := int64(1); id <= 10; id++ {
			j := testJob(t, id, 1+rng.Intn(3), &next)
			jobs = append(jobs, j)
			for _, task := range j.Tasks {
				task.Demand[cluster.ResCPU] = []float64{2, 6, 10}[rng.Intn(3)]
				tasks = append(tasks, task)
			}
		}
		ctx := NewContext(0, cl, jobs, tasks, 0.9, 0.9)
		for _, task := range tasks {
			if err := ctx.Place(task, rng.Intn(12), rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
		cl.FailServer(rng.Intn(12)) // its tasks are evicted: migrating them fails
		var u UnderloadedSet
		u.Reset(ctx)
		for step := 0; step < 200; step++ {
			task := tasks[rng.Intn(len(tasks))]
			src := -1
			if p := cl.Lookup(task.ID.Ref()); p != nil {
				src = p.Server
			}
			dst := rng.Intn(12)
			srcWasUnder, dstWasUnder := slices.Contains(u.IDs(), src), slices.Contains(u.IDs(), dst)
			if err := u.Migrate(ctx, task, dst, rng.Intn(2)); err != nil {
				failed++
			} else {
				if src != dst && !srcWasUnder && slices.Contains(u.IDs(), src) {
					srcFreed++
				}
				if src != dst && dstWasUnder && !slices.Contains(u.IDs(), dst) {
					dstFilled++
				}
			}
			if want := cl.Underloaded(ctx.HR); !slices.Equal(u.IDs(), want) {
				t.Fatalf("seed %d step %d: set %v, rescan %v", seed, step, u.IDs(), want)
			}
		}
	}
	if srcFreed == 0 || dstFilled == 0 || failed == 0 {
		t.Fatalf("vacuous: %d sources freed, %d destinations filled, %d failed migrations", srcFreed, dstFilled, failed)
	}
}
