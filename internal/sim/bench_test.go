package sim

import (
	"fmt"
	"testing"

	"mlfs/internal/core"
	"mlfs/internal/job"
	"mlfs/internal/sched"
)

// noopSched holds the cluster exactly as it is: no placements, no
// migrations, no stops. It freezes a warmed simulator in steady state so
// the tick machinery itself can be measured.
type noopSched struct{}

func (noopSched) Name() string            { return "noop-test" }
func (noopSched) Schedule(*sched.Context) {}

// steadySim builds a simulator, warms it with real ticks under fifoGang
// until arrivals are admitted and placed, then freezes the policy with
// noopSched. The returned sim is mid-run: active jobs, warm caches, warm
// scratch buffers.
func steadySim(tb testing.TB, jobs int) *Simulator {
	tb.Helper()
	s, err := New(Config{
		Cluster:   testClusterCfg(),
		Source:    smallSource(jobs, 17),
		Scheduler: fifoGang{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	// Admit and place everything the cluster can hold.
	for s.pending < s.total {
		s.admitArrivals()
		s.step(s.cfg.TickSec)
	}
	if len(s.active) == 0 {
		tb.Fatal("warmup drained the active set")
	}
	s.sched = noopSched{}
	// One tiny settling tick so every scratch buffer and cache entry has
	// been through the new policy's path at least once.
	s.step(1e-6)
	return s
}

// BenchmarkTick measures one steady-state scheduler tick end to end
// (wobble + scheduling round + advance + overload count). The tiny dt
// keeps the job population fixed so every iteration does the same work.
func BenchmarkTick(b *testing.B) {
	s := steadySim(b, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(1e-6)
	}
}

// BenchmarkIterationTime measures the per-job iteration-cost computation:
// the epoch-cache hit path and the full recompute path.
func BenchmarkIterationTime(b *testing.B) {
	s := steadySim(b, 8)
	var j *job.Job
	for _, cand := range s.active {
		if cand.SimSlot >= 0 && s.cache[cand.SimSlot].valid {
			j = cand
			break
		}
	}
	if j == nil {
		b.Fatal("no fully placed job after warmup")
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.iterationCost(j)
		}
	})
	b.Run("recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.cache[j.SimSlot].valid = false
			s.iterationCost(j)
		}
	})
}

// BenchmarkWobbleDemands measures the per-tick demand update over every
// placed task (one placement lookup + in-place server/device update per
// task).
func BenchmarkWobbleDemands(b *testing.B) {
	s := steadySim(b, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.wobbleDemands()
	}
}

// benchBacklogSim builds a simulator whose entire trace has been admitted at
// once onto a small cluster, so all but a handful of jobs sit in the
// scheduling backlog. Two warm rounds fill the cluster and every
// incremental cache (pending list, no-fit frontier, priority
// components) so the benchmark loop measures the steady round, not cold
// construction.
func benchBacklogSim(tb testing.TB, jobs int, fullRescan bool) *Simulator {
	tb.Helper()
	s, err := New(Config{
		Cluster:    testClusterCfg(),
		Source:     smallSource(jobs, 99),
		Scheduler:  core.NewMLFH(),
		FullRescan: fullRescan,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// Jump past the arrival window and admit the whole trace in one call.
	s.now = 3601
	if err := s.admitArrivals(); err != nil {
		tb.Fatal(err)
	}
	if s.pending != s.total {
		tb.Fatalf("admitted %d of %d jobs", s.pending, s.total)
	}
	s.runScheduler()
	s.runScheduler()
	return s
}

// BenchmarkScheduleRound measures one MLF-H scheduling round against a
// large backlog, swept over the dirty-set size: dirty=0% is the
// journal-empty round (cached priorities, maintained pending list,
// no-fit frontier all hot), dirty=1% is the typical online round, and
// dirty=100% invalidates every job — the incremental worst case. The
// fullrescan cells run the same round with the incremental structure
// disabled, the oracle the dirty rounds are measured against.
func BenchmarkScheduleRound(b *testing.B) {
	for _, jobs := range []int{1_000, 10_000, 100_000} {
		for _, mode := range []struct {
			name       string
			dirtyFrac  float64
			fullRescan bool
		}{
			{"dirty=0%", 0, false},
			{"dirty=1%", 0.01, false},
			{"dirty=100%", 1, false},
			{"fullrescan", 0, true},
		} {
			b.Run(fmt.Sprintf("backlog=%d/%s", jobs, mode.name), func(b *testing.B) {
				s := benchBacklogSim(b, jobs, mode.fullRescan)
				nDirty := int(mode.dirtyFrac * float64(len(s.active)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, j := range s.active[:nDirty] {
						s.ctx.MarkDirty(j)
					}
					s.runScheduler()
				}
			})
		}
	}
}

// TestSteadyStateTickAllocs pins the tentpole property: a steady-state
// tick performs zero heap allocations. The subtest keeps its name from
// when a pooled variant ran beside it; the advance is serial only now.
func TestSteadyStateTickAllocs(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		s := steadySim(t, 24)
		if got := testing.AllocsPerRun(200, func() { s.step(1e-6) }); got != 0 {
			t.Fatalf("steady-state tick allocates: %v allocs/tick", got)
		}
	})
}
