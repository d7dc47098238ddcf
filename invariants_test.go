package mlfs

import (
	"testing"

	"mlfs/internal/sched"
)

// gangChecker wraps a scheduler and asserts after every round that each
// job is either fully placed or fully queued — the gang-atomicity
// invariant the synchronous-training simulator depends on. Any scheduler
// that strands a partial gang would silently hold GPUs without progress.
// It also asserts that each job's PlacedTasks equals its placed-task
// count, since the simulator skips jobs by that counter: a placement,
// eviction or migration path that forgets to maintain it would silently
// freeze or skip a job.
type gangChecker struct {
	inner sched.Scheduler
	t     *testing.T
}

func (g *gangChecker) Name() string { return g.inner.Name() }

func (g *gangChecker) Schedule(ctx *sched.Context) {
	g.inner.Schedule(ctx)
	for _, j := range ctx.Jobs() {
		if j.Done() {
			continue
		}
		placed := 0
		for _, task := range j.Tasks {
			if ctx.Cluster.Lookup(task.ID.Ref()) != nil {
				placed++
			}
		}
		if placed != 0 && placed != len(j.Tasks) {
			g.t.Errorf("%s: job %d partially placed (%d/%d tasks)",
				g.inner.Name(), j.ID, placed, len(j.Tasks))
		}
		if j.PlacedTasks != placed {
			g.t.Errorf("%s: job %d has PlacedTasks %d, %d tasks placed",
				g.inner.Name(), j.ID, j.PlacedTasks, placed)
		}
	}
}

// TestGangInvariantAllSchedulers runs every scheduler under gangChecker,
// fault-free and with server failures (MTTF 1 h), so the eviction paths
// of the failure recovery and of the preempting schedulers are checked
// too.
func TestGangInvariantAllSchedulers(t *testing.T) {
	tr := GenerateTrace(30, 17, 3600)
	for _, name := range SchedulerNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, failures := range []FailureConfig{{}, {MTTFSec: 3600, MTTRSec: 600, Seed: 5}} {
				inner, err := NewScheduler(name, SchedulerOptions{Seed: 1, ImitationRounds: 10})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Options{
					Sched: &gangChecker{inner: inner, t: t},
					Trace: tr, Servers: 4, GPUsPerServer: 4,
					Failures: failures,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Jobs != 30 {
					t.Fatalf("mttf=%.0f: jobs = %d", failures.MTTFSec, res.Jobs)
				}
			}
		})
	}
}
