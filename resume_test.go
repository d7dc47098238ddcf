package mlfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
)

// resumeSimConfig builds a small fault-capable run for snapshot tests:
// 24 jobs on a 16-GPU cluster, arrivals over 30 ticks. Every call
// constructs a fresh scheduler and re-materialises the trace, so
// simulators never share state.
func resumeSimConfig(t *testing.T, name string, mttf float64) sim.Config {
	t.Helper()
	sch, err := NewScheduler(name, SchedulerOptions{Seed: 1, ImitationRounds: 40})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Cluster:   Options{Servers: 4, GPUsPerServer: 4}.clusterConfig(),
		Source:    NewSliceSource(GenerateTrace(24, 1, 1800)),
		Scheduler: sch,
	}
	if mttf > 0 {
		cfg.Failures = FailureConfig{MTTFSec: mttf, MTTRSec: 600, Seed: 3}
	}
	return cfg
}

// snapshotAt runs a fresh simulator to stopAt ticks, writing its
// snapshot exactly there, and returns the simulator and the payload.
func snapshotAt(t *testing.T, cfg sim.Config, stopAt int) (*sim.Simulator, []byte) {
	t.Helper()
	cfg.SnapshotEvery = stopAt
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "run.snap")
	cfg.StopAtTick = stopAt
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Tick(); got != stopAt {
		t.Fatalf("stopped at tick %d, want %d", got, stopAt)
	}
	payload, err := snapshot.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	return s, payload
}

// TestSnapshotGoldenRoundTrip is the per-scheduler bit-identity
// guarantee: snapshot a run at tick T, decode into a fresh simulator,
// verify the deep state survives exactly (the restored simulator
// re-encodes to the original payload bytes), then continue 100 more
// ticks and compare every metric — including each job's completion time
// — bit-for-bit against an uninterrupted run.
func TestSnapshotGoldenRoundTrip(t *testing.T) {
	const stopAt, extra = 80, 100
	for _, name := range append(SchedulerNames(), "fifo", "srtf") {
		t.Run(name, func(t *testing.T) {
			_, payload := snapshotAt(t, resumeSimConfig(t, name, 0), stopAt)

			cfgB := resumeSimConfig(t, name, 0)
			cfgB.StopAtTick = stopAt + extra
			simB, err := sim.New(cfgB)
			if err != nil {
				t.Fatal(err)
			}
			if err := simB.Restore(payload); err != nil {
				t.Fatal(err)
			}
			re, err := simB.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, payload) {
				t.Fatalf("restored state re-encodes differently (%d vs %d bytes)", len(re), len(payload))
			}
			resumed, err := simB.Run()
			if err != nil {
				t.Fatal(err)
			}

			cfgC := resumeSimConfig(t, name, 0)
			cfgC.StopAtTick = stopAt + extra
			simC, err := sim.New(cfgC)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := simC.Run()
			if err != nil {
				t.Fatal(err)
			}
			resumed.Counters.ZeroVolatile()
			golden.Counters.ZeroVolatile()
			if !reflect.DeepEqual(resumed, golden) {
				t.Fatalf("resumed run diverged from uninterrupted run:\n%+v\n%+v", resumed, golden)
			}
		})
	}
}

// TestSnapshotResumeWhileParked covers the hardest dynamic state: a
// snapshot taken under an active FailureConfig at an instant when jobs
// are sitting in retry backoff. The parked set, its order, the fault
// process RNG position and the retry bookkeeping must all survive for
// the continuation to match.
func TestSnapshotResumeWhileParked(t *testing.T) {
	const mttf = 1800 // one expected failure per server per 30 ticks
	// Probe the run tick by tick for an instant with parked jobs.
	probe, err := sim.New(resumeSimConfig(t, "mlf-h", mttf))
	if err != nil {
		t.Fatal(err)
	}
	stopAt := 0
	for i := 1; i <= 600 && stopAt == 0; i++ {
		probe.SetStopAtTick(i)
		if _, err := probe.Run(); err != nil {
			t.Fatal(err)
		}
		if len(probe.Parked()) > 0 {
			stopAt = probe.Tick()
		}
	}
	if stopAt == 0 {
		t.Fatal("no job ever entered retry backoff; failure process too mild for this test")
	}

	simA, payload := snapshotAt(t, resumeSimConfig(t, "mlf-h", mttf), stopAt)
	if len(simA.Parked()) == 0 {
		t.Fatalf("tick %d: expected parked jobs at snapshot time", stopAt)
	}

	cfgB := resumeSimConfig(t, "mlf-h", mttf)
	simB, err := sim.New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := simB.Restore(payload); err != nil {
		t.Fatal(err)
	}
	if len(simB.Parked()) != len(simA.Parked()) {
		t.Fatalf("parked set not restored: %d vs %d", len(simB.Parked()), len(simA.Parked()))
	}
	re, err := simB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, payload) {
		t.Fatal("restored state re-encodes differently with parked jobs")
	}
	resumed, err := simB.Run()
	if err != nil {
		t.Fatal(err)
	}

	simC, err := sim.New(resumeSimConfig(t, "mlf-h", mttf))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := simC.Run()
	if err != nil {
		t.Fatal(err)
	}
	resumed.Counters.ZeroVolatile()
	golden.Counters.ZeroVolatile()
	if !reflect.DeepEqual(resumed, golden) {
		t.Fatalf("resume from parked state diverged:\n%+v\n%+v", resumed, golden)
	}
}

// TestResumeNoiseStreamRegression pins a bug the small round-trip tests
// missed: observation noise (Curve.ObservedAccuracy) comes from a
// per-curve RNG whose stream position was not snapshotted, so a resumed
// run replayed noise values the uninterrupted run had already consumed.
// The slightly different accuracy observations only flip a scheduling
// decision once enough post-resume draws accumulate, which needs a late
// snapshot in a long run — the paper-real configuration below was the
// first to expose it (resumed avgJCT drifted ~1% from golden).
func TestResumeNoiseStreamRegression(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "run.snap")
	opts := Options{
		Scheduler: "mlfs",
		Jobs:      80, Seed: 7,
		SchedOpts: SchedulerOptions{Seed: 7},
		Failures:  FailureConfig{MTTFSec: 21600, MTTRSec: 600, Seed: 7},
	}
	golden, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	withSnap := opts
	withSnap.SnapshotEvery = 200
	withSnap.SnapshotPath = snapPath
	if _, err := Run(withSnap); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(snapPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Counters.ZeroVolatile()
	golden.Counters.ZeroVolatile()
	if !reflect.DeepEqual(resumed, golden) {
		t.Fatalf("resume replayed a different noise stream:\navgJCT %v vs %v min\nmigrations %v vs %v",
			resumed.AvgJCTSec/60, golden.AvgJCTSec/60, resumed.Counters.Migrations, golden.Counters.Migrations)
	}
}

// TestResumeFacade drives the public Run/Resume pair end to end: a
// snapshotted run resumed via mlfs.Resume matches an uninterrupted
// mlfs.Run, and the error taxonomy behaves (missing file, corrupt file,
// mismatched run).
func TestResumeFacade(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "run.snap")
	opts := Options{
		Scheduler: "mlf-h",
		Jobs:      24, Seed: 1, TraceDurationSec: 1800,
		Servers: 4, GPUsPerServer: 4,
		Failures: FailureConfig{MTTFSec: 7200, MTTRSec: 600, Seed: 3},
	}
	golden, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	withSnap := opts
	withSnap.SnapshotEvery = 50
	withSnap.SnapshotPath = snapPath
	if _, err := Run(withSnap); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(snapPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Counters.ZeroVolatile()
	golden.Counters.ZeroVolatile()
	if !reflect.DeepEqual(resumed, golden) {
		t.Fatalf("Resume diverged from Run:\n%+v\n%+v", resumed, golden)
	}

	if _, err := Resume(filepath.Join(t.TempDir(), "absent.snap"), opts); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: %v", err)
	}

	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	badPath := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(badPath, opts); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("corrupt snapshot: %v", err)
	}

	other := opts
	other.Scheduler = "tiresias"
	if _, err := Resume(snapPath, other); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("mismatched run: %v", err)
	}
}
