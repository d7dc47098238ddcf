package sim

import (
	"testing"

	"mlfs/internal/job"
	"mlfs/internal/philly"
)

// These tests pin the hot-set retirement contract of the sparse core:
// finished jobs leave every per-tick data structure, so per-decision
// cost and cache memory track live jobs, not total submissions. Before
// retirement existed, completed jobs stayed in the scheduler context's
// task index and held their cache slot forever — the leak these
// assertions would catch if it ever came back.

// inUseSlots counts cache slots currently owned by a job.
func inUseSlots(s *Simulator) int { return len(s.cache) - len(s.freeSlots) }

// driveToEnd runs the simulator with the same loop shape as Run,
// invoking check after every executed tick.
func driveToEnd(t *testing.T, s *Simulator, check func()) {
	t.Helper()
	dt := s.cfg.TickSec
	for {
		if err := s.admitArrivals(); err != nil {
			t.Fatal(err)
		}
		if !s.HasPendingEvents() {
			return
		}
		if next, ok := s.PeekNextEventTime(); ok && next > s.now+dt {
			s.AdvanceTo(next)
			if err := s.admitArrivals(); err != nil {
				t.Fatal(err)
			}
		}
		if s.now >= s.cfg.MaxSimSec {
			if err := s.truncate(); err != nil {
				t.Fatal(err)
			}
			return
		}
		s.step(dt)
		check()
	}
}

// TestRetirementKeepsHotSetsTight drives a full run tick by tick and
// asserts, after every tick, that no finished job lingers in the active
// set and that the in-use cache-slot count equals the active-job count
// exactly — a completed job holding a slot (the historical leak) fails
// immediately. At the end every slot must be back on the free list and
// the cache must never have outgrown the peak live population.
func TestRetirementKeepsHotSetsTight(t *testing.T) {
	s, err := New(Config{
		Cluster: testClusterCfg(), Source: smallSource(30, 9), Scheduler: fifoGang{},
	})
	if err != nil {
		t.Fatal(err)
	}
	retired := collectRetired(s)
	maxActive := 0
	driveToEnd(t, s, func() {
		for _, j := range s.active {
			if j.Done() {
				t.Fatalf("finished job %d still in the active set", j.ID)
			}
		}
		if got, want := inUseSlots(s), len(s.active); got != want {
			t.Fatalf("%d cache slots in use for %d active jobs", got, want)
		}
		if len(s.active) > maxActive {
			maxActive = len(s.active)
		}
	})
	if len(s.active) != 0 || len(s.waiting) != 0 {
		t.Fatalf("run ended with %d active jobs, %d waiting tasks", len(s.active), len(s.waiting))
	}
	if inUseSlots(s) != 0 {
		t.Fatalf("%d cache slots still in use after the run", inUseSlots(s))
	}
	if len(s.cache) > maxActive {
		t.Fatalf("cache grew to %d slots, peak live was %d", len(s.cache), maxActive)
	}
	if len(*retired) != 30 {
		t.Fatalf("%d jobs retired, want 30", len(*retired))
	}
	for _, j := range *retired {
		if !j.Done() {
			t.Fatalf("job %d not finished", j.ID)
		}
	}
}

// TestSourceModeRetiresJobObjects runs a synthetic Philly stream and
// asserts every submission ends up as a tally (the only state that may
// outlive retirement) with the live sets fully drained.
func TestSourceModeRetiresJobObjects(t *testing.T) {
	src := philly.NewSynthetic(philly.SynthConfig{Jobs: 40, Seed: 11, DurationSec: 3600})
	s, err := New(Config{
		Cluster: testClusterCfg(), Source: src, Scheduler: fifoGang{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 40 {
		t.Fatalf("result covers %d jobs, want 40", res.Jobs)
	}
	if len(s.tallies) != 40 {
		t.Fatalf("%d tallies after the run, want 40", len(s.tallies))
	}
	if len(s.active) != 0 || len(s.waiting) != 0 || inUseSlots(s) != 0 {
		t.Fatalf("live state after run: %d active, %d waiting, %d slots in use",
			len(s.active), len(s.waiting), inUseSlots(s))
	}
}

// TestTickAllocFreeWithCompletedBacklog extends the zero-alloc pin to a
// simulator dragging a large completed backlog: retirement must leave
// the steady-state tick allocation-free no matter how many jobs have
// finished.
func TestTickAllocFreeWithCompletedBacklog(t *testing.T) {
	s := backlogSim(t, 2016, 16)
	if got := testing.AllocsPerRun(200, func() { s.step(1e-6) }); got != 0 {
		t.Fatalf("steady-state tick with completed backlog allocates: %v allocs/tick", got)
	}
}

// backlogSim builds a mid-run simulator over a trace of `total`
// submissions in which all but `live` of the admitted jobs have already
// finished and been retired; the survivors get one real scheduling
// round under fifoGang before the policy is frozen with noopSched.
func backlogSim(tb testing.TB, total, live int) *Simulator {
	tb.Helper()
	s, err := New(Config{
		Cluster:   testClusterCfg(),
		Source:    smallSource(total, 23),
		Scheduler: fifoGang{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for s.pending < s.total {
		if err := s.admitArrivals(); err != nil {
			tb.Fatal(err)
		}
		s.now += 120
	}
	n := len(s.active) - live
	if n < 0 {
		tb.Fatalf("only %d jobs admitted, need at least %d", len(s.active), live)
	}
	for _, j := range s.active[:n] {
		s.finishJob(j, s.now, job.Stopped)
	}
	s.pruneActive()
	s.step(s.cfg.TickSec) // place the survivors
	s.sched = noopSched{}
	s.step(1e-6)
	return s
}

// BenchmarkTickWithCompletedBacklog is the per-tick-cost regression
// benchmark for hot-set retirement: the same 16 live jobs tick under
// growing completed backlogs. With retirement working, ns/op stays flat
// across sub-benchmarks; a reintroduced leak makes it scale with the
// backlog size.
func BenchmarkTickWithCompletedBacklog(b *testing.B) {
	for _, bc := range []struct {
		name  string
		total int
	}{{"completed=0", 16}, {"completed=1k", 1040}, {"completed=8k", 8208}} {
		b.Run(bc.name, func(b *testing.B) {
			s := backlogSim(b, bc.total, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step(1e-6)
			}
		})
	}
}
