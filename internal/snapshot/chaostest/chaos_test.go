package chaostest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mlfs"
	"mlfs/internal/cluster"
	"mlfs/internal/metrics"
	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
)

// chaosHorizonTicks bounds every chaos run: the simulation truncates at
// this horizon, so even slow policies finish in test time while the
// comparison still covers admission, scheduling, failures, retries and
// completion.
const chaosHorizonTicks = 300

// chaosConfig builds one small chaos run: 16 jobs on a 12-GPU cluster,
// arrivals over the first 20 ticks. A fresh scheduler and re-materialised
// trace per call, so segments never share mutable state.
func chaosConfig(t testing.TB, name string, mttf float64) sim.Config {
	t.Helper()
	sch, err := mlfs.NewScheduler(name, mlfs.SchedulerOptions{Seed: 1, ImitationRounds: 30})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Cluster: cluster.Config{
			Servers: 3, GPUsPerServer: 4,
			GPUCapacity: 1, CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200,
		},
		Source:    mlfs.NewSliceSource(mlfs.GenerateTrace(16, 1, 1200)),
		Scheduler: sch,
		MaxSimSec: chaosHorizonTicks * 60,
	}
	if mttf > 0 {
		cfg.Failures = sim.FailureConfig{MTTFSec: mttf, MTTRSec: 600, Seed: 5}
	}
	return cfg
}

// runToEnd executes a fresh simulator to completion and returns its
// result with the wall-clock-only counter zeroed.
func runToEnd(t testing.TB, cfg sim.Config) *metrics.Result {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.Counters.ZeroVolatile()
	return res
}

// TestChaosCrashReplay is the acceptance matrix of the snapshot
// subsystem: {fifo, srtf, mlf-h, mlf-rl} × MTTF {∞, 6h}, each killed
// and resumed at three randomized seeded ticks. The resumed lineage must
// reproduce the uninterrupted run's metrics and per-job completion times
// bit for bit. Cell names carry workers=1: the simulator advances jobs
// on one goroutine, the configuration these cells have always named.
// Each cell keeps the kill-schedule seed it had when the matrix also
// ran a workers=8 column, so the seeds step by four per scheduler.
func TestChaosCrashReplay(t *testing.T) {
	for i, name := range []string{"fifo", "srtf", "mlf-h", "mlf-rl"} {
		for k, mttf := range []float64{0, 21600} {
			name, mttf, seed := name, mttf, int64(2+4*i+k)
			t.Run(fmt.Sprintf("%s/workers=1/mttf=%.0f", name, mttf), func(t *testing.T) {
				t.Parallel()
				runChaos(t, name, mttf, seed)
			})
		}
	}
}

// runChaos kills a snapshotting run at each tick in a seeded random
// schedule, resumes every segment from the latest snapshot on disk in a
// brand-new simulator (a fresh "process"), lets the last segment run to
// completion, and compares against the golden uninterrupted run.
func runChaos(t *testing.T, name string, mttf float64, seed int64) {
	runChaosCfg(t, func() sim.Config { return chaosConfig(t, name, mttf) }, seed)
}

// runChaosCfg is runChaos over an arbitrary config factory (called
// fresh per segment, so segments never share schedulers or workloads).
func runChaosCfg(t *testing.T, mkcfg func() sim.Config, seed int64) {
	golden := runToEnd(t, mkcfg())

	// Three distinct kill ticks, ascending. The snapshot cadence is
	// coprime-ish to typical kill points, so most kills land between
	// snapshots and force a replay of the uncheckpointed tail.
	const snapEvery = 7
	rng := rand.New(rand.NewSource(seed))
	kills := map[int]bool{}
	for len(kills) < 3 {
		kills[3+rng.Intn(chaosHorizonTicks-50)] = true
	}
	ticks := make([]int, 0, len(kills))
	for k := range kills {
		ticks = append(ticks, k)
	}
	sort.Ints(ticks)

	path := filepath.Join(t.TempDir(), "chaos.snap")
	segment := func(stopAt int) *metrics.Result {
		cfg := mkcfg()
		cfg.SnapshotEvery = snapEvery
		cfg.SnapshotPath = path
		cfg.StopAtTick = stopAt
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, statErr := os.Stat(path); statErr == nil {
			payload, err := snapshot.ReadFile(path)
			if err != nil {
				t.Fatalf("snapshot unreadable after kill: %v", err)
			}
			if err := s.Restore(payload); err != nil {
				t.Fatalf("restore after kill: %v", err)
			}
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, k := range ticks {
		segment(k) // killed here: partial result discarded, snapshot survives
	}
	final := segment(0) // last restart runs to completion
	final.Counters.ZeroVolatile()

	if !reflect.DeepEqual(golden, final) {
		t.Fatalf("crash–replay lineage diverged from uninterrupted run (kills at %v):\ngolden: %+v\nfinal:  %+v",
			ticks, golden, final)
	}
}
