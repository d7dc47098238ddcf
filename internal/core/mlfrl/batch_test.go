package mlfrl

import (
	"reflect"
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/metrics"
	"mlfs/internal/sim"
	"mlfs/internal/trace"
)

// runSim executes one fixed MLF-RL simulation and returns its metrics
// with the wall-clock counter zeroed (SchedSeconds is the one
// legitimately non-deterministic field).
func runSim(t testing.TB, cfg Config, reference bool) *metrics.Result {
	t.Helper()
	s := New(cfg)
	if reference {
		s.Policy().SetReference(true)
	}
	simulator, err := sim.New(sim.Config{
		Cluster: cluster.Config{Servers: 6, GPUsPerServer: 4, GPUCapacity: 1,
			CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200},
		Source:    trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: 40, Seed: 17, DurationSec: 3 * 3600})),
		Scheduler: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.Counters.SchedSeconds = 0
	return res
}

// TestSimBatchedMatchesReference is the end-to-end bit-identity check
// the acceptance criteria ask for: a full MLF-RL run (imitation phase,
// RL phase, migrations) on the batched engine must produce exactly the
// metrics of the historical per-sample path.
func TestSimBatchedMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ImitationRounds = 60
	cfg.RewardDelayRounds = 3
	batched := runSim(t, cfg, false)
	reference := runSim(t, cfg, true)
	if !reflect.DeepEqual(batched, reference) {
		t.Fatalf("batched run diverged from per-sample reference:\nbatched:   %+v\nreference: %+v",
			batched, reference)
	}
}

// TestImitationMinibatchMetricsInvariant: during the imitation phase
// placements follow MLF-H regardless of what the network has learned,
// so imitation minibatching (the training-schedule change) must leave
// simulation metrics untouched.
func TestImitationMinibatchMetricsInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ImitationRounds = 1 << 30 // whole run stays in the imitation phase
	perDecision := runSim(t, cfg, false)
	cfg.BatchSize = 16
	minibatch := runSim(t, cfg, false)
	if !reflect.DeepEqual(perDecision, minibatch) {
		t.Fatalf("imitation minibatching changed simulation metrics:\nbatch=1:  %+v\nbatch=16: %+v",
			perDecision, minibatch)
	}
}

// TestMinibatchTakesFewerSteps checks the minibatch schedule is actually
// in effect: optimizer steps ≈ decisions / BatchSize instead of one per
// decision.
func TestMinibatchTakesFewerSteps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ImitationRounds = 1 << 30
	s1 := New(cfg)
	cfg.BatchSize = 16
	s16 := New(cfg)
	for _, s := range []*Scheduler{s1, s16} {
		simulator, err := sim.New(sim.Config{
			Cluster: cluster.Config{Servers: 6, GPUsPerServer: 4, GPUCapacity: 1,
				CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200},
			Source:    trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: 40, Seed: 17, DurationSec: 3 * 3600})),
			Scheduler: s,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simulator.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if s1.Imitated() != s16.Imitated() {
		t.Fatalf("decision counts diverged: %d vs %d", s1.Imitated(), s16.Imitated())
	}
	steps1 := s1.Policy().Opt.StepCount()
	steps16 := s16.Policy().Opt.StepCount()
	if steps1 != s1.Imitated() {
		t.Fatalf("batch=1 must step per decision: %d steps, %d decisions", steps1, s1.Imitated())
	}
	want := s16.Imitated() / 16
	if steps16 < want || steps16 > want+1 {
		t.Fatalf("batch=16 steps = %d, want ≈ %d (%d decisions)", steps16, want, s16.Imitated())
	}
}

// BenchmarkMLFRLTick measures a whole MLF-RL simulation tick in situ —
// scheduling rounds plus job advancement over a fixed trace — on the
// batched engine vs the per-sample reference path. The NN-only speedup
// is larger (see internal/nn benchmarks); this shows what survives
// dilution by the rest of the scheduler.
func BenchmarkMLFRLTick(b *testing.B) {
	bench := func(b *testing.B, reference bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := DefaultConfig()
			cfg.ImitationRounds = 60
			cfg.RewardDelayRounds = 3
			res := runSim(b, cfg, reference)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.Counters.SchedRounds), "ns/round")
		}
	}
	b.Run("reference", func(b *testing.B) { bench(b, true) })
	b.Run("batched", func(b *testing.B) { bench(b, false) })
}
