package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/learncurve"
)

// fitsNowhere reports whether no underloaded server's least-loaded
// device can host (demand, gpuShare) — the failure the no-fit frontier
// records and later infers by dominance.
func fitsNowhere(c *Context, demand cluster.Vec, gpuShare float64) bool {
	for _, si := range c.Cluster.AppendUnderloaded(nil, c.HR) {
		if c.Cluster.FitsLeastLoaded(si, demand, gpuShare, c.HR) {
			return false
		}
	}
	return true
}

// checkNofit asserts the frontier's obligation on c as it stands: when
// the frontier is keyed to the current (epoch, HR), every recorded shape
// and every queued task the frontier declares hopeless fits nowhere. It
// returns the number of hopeless tasks it checked.
func checkNofit(t *testing.T, c *Context, where string) int {
	t.Helper()
	if c.nofitValid && c.nofitEpoch == c.Cluster.Epoch() && c.nofitHR == c.HR {
		for _, s := range c.nofit {
			if !fitsNowhere(c, s.demand, s.gpuShare) {
				t.Fatalf("%s: recorded no-fit shape %+v fits", where, s)
			}
		}
	}
	hopeless := 0
	for _, j := range c.Jobs() {
		for _, tk := range j.Tasks {
			if !c.IsWaiting(tk) || !c.GangHopeless(tk) {
				continue
			}
			hopeless++
			if !fitsNowhere(c, tk.Demand, tk.GPUShare) {
				t.Fatalf("%s: task %d (demand %v, share %v) is declared hopeless but fits", where, tk.ID, tk.Demand, tk.GPUShare)
			}
		}
	}
	return hopeless
}

// TestNofitFrontierSound drives PlaceGang over seeded backlogs of
// heterogeneous gangs and checks the frontier after every attempt. GPU
// shares come from three values, so gangs of different jobs share them,
// while CPU and memory vary continuously: a failure can then be CPU- or
// memory-bound and the dominance test's demand comparisons decide
// verdicts. In the simulator's workloads every worker asks for the same
// share, CPU and memory and failures are GPU-bound, so there a broken
// dominance test does not change a verdict.
func TestNofitFrontierSound(t *testing.T) {
	hopeless := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var next job.TaskID
		var jobs []*job.Job
		var waiting []*job.Task
		for id := 1; id <= 16; id++ {
			j, err := job.Build(job.Spec{
				ID: job.ID(id), Family: learncurve.MLP, Comm: job.AllReduce,
				ModelParallel: 1 + rng.Intn(2), MaxIterations: 10, IterSec: 4, TotalParams: 8,
				GPUSharePerTask: []float64{0.25, 0.5, 0.75}[rng.Intn(3)],
				CPUPerTask:      0.5 + 11*rng.Float64(),
				MemPerTask:      1 + 40*rng.Float64(),
				Curve:           learncurve.Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.05},
			}, &next)
			if err != nil {
				t.Fatal(err)
			}
			j.SimSlot = id - 1
			jobs = append(jobs, j)
			waiting = append(waiting, j.Tasks...)
		}
		cl := cluster.New(cluster.Config{Servers: 4, GPUsPerServer: 4, GPUCapacity: 1,
			CPUCapacity: 16, MemoryCapacity: 64, BWCapacity: 200})
		c := NewContext(0, cl, jobs, waiting, 0.9, 0.9)
		// Two passes: the second re-attempts the leftovers against the
		// frontier the first pass built.
		for pass := 0; pass < 2; pass++ {
			for _, j := range append([]*job.Job(nil), c.PendingJobs()...) {
				c.PlaceGang(c.QueuedTasksOf(j), FirstFit)
				hopeless += checkNofit(t, c, fmt.Sprintf("seed %d pass %d after job %d", seed, pass, j.ID))
			}
		}
	}
	if hopeless == 0 {
		t.Fatal("vacuous: the frontier never declared a queued task hopeless")
	}
	t.Logf("%d hopeless verdicts checked", hopeless)
}
