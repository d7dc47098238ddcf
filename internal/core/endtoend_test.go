package core

import (
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
	"mlfs/internal/sim"
	"mlfs/internal/trace"
)

// runEndToEnd drives a scheduler through a complete small simulation and
// sanity-checks the outcome. Shared by the MLF-H/MLF-RL/MLFS tests.
func runEndToEnd(t *testing.T, s sched.Scheduler, jobs int, seed int64) *metrics.Result {
	t.Helper()
	simulator, err := sim.New(sim.Config{
		Cluster: cluster.Config{Servers: 4, GPUsPerServer: 4, GPUCapacity: 1,
			CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200},
		Source:    trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: jobs, Seed: seed, DurationSec: 2 * 3600})),
		Scheduler: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != jobs {
		t.Fatalf("jobs = %d, want %d", res.Jobs, jobs)
	}
	if res.Counters.Truncated > jobs/4 {
		t.Fatalf("%d of %d jobs truncated — scheduler likely wedged", res.Counters.Truncated, jobs)
	}
	if res.AvgJCTSec <= 0 {
		t.Fatalf("degenerate JCT %v", res.AvgJCTSec)
	}
	return res
}
