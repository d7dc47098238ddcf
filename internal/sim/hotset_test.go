package sim

import (
	"fmt"
	"math"
	"testing"

	"mlfs/internal/baselines"
	"mlfs/internal/cluster"
	"mlfs/internal/core"
	"mlfs/internal/core/mlfrl"
	"mlfs/internal/job"
	"mlfs/internal/philly"
	"mlfs/internal/sched"
	"mlfs/internal/trace"
)

// These tests check, after every tick, the preconditions that make the
// core's hot-set gates exact:
//
//   - wobbleDemands and fullyPlaced skip jobs by PlacedTasks, which is
//     exact only while it equals the job's placed-task count;
//   - the iteration-cost cache is indexed by recycled slots, which is
//     sound only while every active job owns a distinct slot that is
//     not also on the free list;
//   - releaseParked returns after one comparison until the retry heap's
//     minimum falls due, which never releases a job late only while the
//     heap minimum is at or before every parked job's NextRetryAt.
//
// A broken gate shows here on the tick it goes wrong, whether or not it
// ever changes a result.

// hotSetScheduler builds the named policy with the chaos harness's
// options (seed 1, 30 imitation rounds for MLF-RL).
func hotSetScheduler(t *testing.T, name string) sched.Scheduler {
	t.Helper()
	switch name {
	case "fifo":
		return baselines.NewFIFO()
	case "srtf":
		return baselines.NewSRTF()
	case "mlf-h":
		return core.NewMLFH()
	case "mlf-rl":
		cfg := mlfrl.DefaultConfig()
		cfg.Seed = 1
		cfg.ImitationRounds = 30
		return mlfrl.New(cfg, core.NewMLFH())
	case "tensorflow":
		return baselines.NewBorgFair()
	}
	t.Fatalf("unknown scheduler %q", name)
	return nil
}

// checkHotSets asserts the three gate preconditions on s's current
// state and reports whether any live job is parked.
func checkHotSets(t *testing.T, s *Simulator) (parked bool) {
	t.Helper()
	owner := make(map[int]job.ID, len(s.active))
	for _, j := range s.active {
		placed := 0
		for _, task := range j.Tasks {
			if s.cl.Lookup(task.ID.Ref()) != nil {
				placed++
			}
		}
		if j.PlacedTasks != placed {
			t.Fatalf("t=%v: job %d has PlacedTasks %d, %d tasks placed", s.now, j.ID, j.PlacedTasks, placed)
		}
		if j.SimSlot < 0 || j.SimSlot >= len(s.cache) {
			t.Fatalf("t=%v: active job %d holds slot %d of %d", s.now, j.ID, j.SimSlot, len(s.cache))
		}
		if other, dup := owner[j.SimSlot]; dup {
			t.Fatalf("t=%v: jobs %d and %d share slot %d", s.now, other, j.ID, j.SimSlot)
		}
		owner[j.SimSlot] = j.ID
	}
	for _, slot := range s.freeSlots {
		if id, used := owner[slot]; used {
			t.Fatalf("t=%v: slot %d is on the free list and held by job %d", s.now, slot, id)
		}
	}
	due := math.Inf(1)
	for _, j := range s.parked {
		if !j.Done() {
			due = math.Min(due, j.NextRetryAt)
		}
	}
	if math.IsInf(due, 1) {
		return false
	}
	if len(s.retryHeap) == 0 || s.retryHeap[0] > due {
		t.Fatalf("t=%v: a parked job is due at %v, retry heap %v", s.now, due, s.retryHeap)
	}
	return true
}

// TestHotSetInvariants drives the chaos matrix — {generated trace,
// synthetic Philly stream} × {fifo, srtf, mlf-h, mlf-rl, tensorflow} ×
// MTTF {∞, 6h, 1h} on a 3 × 4-GPU cluster with a 300-tick horizon —
// tick by tick and checks the hot-set gate preconditions after every
// tick. Fault cells must park a job on at least one tick, so the retry
// gate's check is never vacuous.
func TestHotSetInvariants(t *testing.T) {
	workloads := []struct {
		name   string
		source func() trace.Source
	}{
		{"trace", func() trace.Source {
			return trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: 16, Seed: 1, DurationSec: 1200}))
		}},
		{"stream", func() trace.Source {
			return philly.NewSynthetic(philly.SynthConfig{Jobs: 16, Seed: 1, DurationSec: 1200})
		}},
	}
	for _, wl := range workloads {
		for _, name := range []string{"fifo", "srtf", "mlf-h", "mlf-rl", "tensorflow"} {
			for _, mttf := range []float64{0, 21600, 3600} {
				wl, name, mttf := wl, name, mttf
				t.Run(fmt.Sprintf("%s/%s/mttf=%.0f", wl.name, name, mttf), func(t *testing.T) {
					t.Parallel()
					cfg := Config{
						Cluster: cluster.Config{
							Servers: 3, GPUsPerServer: 4,
							GPUCapacity: 1, CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200,
						},
						Source:    wl.source(),
						Scheduler: hotSetScheduler(t, name),
						MaxSimSec: 300 * 60,
					}
					if mttf > 0 {
						cfg.Failures = FailureConfig{MTTFSec: mttf, MTTRSec: 600, Seed: 5}
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					parkedTicks := 0
					driveToEnd(t, s, func() {
						if checkHotSets(t, s) {
							parkedTicks++
						}
					})
					t.Logf("%d ticks with a parked job", parkedTicks)
					if mttf > 0 && parkedTicks == 0 {
						t.Fatal("no job was parked on any tick; the retry-gate check never ran")
					}
				})
			}
		}
	}
}
