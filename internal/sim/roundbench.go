package sim

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the backlogged round-scan probe behind the
// backlog-round-µs metrics of the root package's BenchmarkPhillyScale.
// The normal scale cells run at the Philly trace's submission density,
// where the cluster keeps up and rounds are dominated by placement and
// migration work; the probe instead measures the regime the round
// structure's caches are for — a standing backlog far larger than the
// cluster — where round cost is pure scan-and-rank work and the
// dirty-set structure is the difference between O(dirty) and
// O(backlog).

// RoundScan reports the backlogged round-scan probe's measurements.
type RoundScan struct {
	// RoundSec is the mean wall-clock seconds per measured round.
	RoundSec float64
	// RoundMedianSec is the median wall-clock seconds of the measured
	// rounds: one descheduled or GC-paused round moves the mean of a
	// short probe but not the median.
	RoundMedianSec float64
	// Rounds is the number of measured rounds.
	Rounds int
	// Backlog is the number of live jobs forming the standing backlog
	// when measurement starts (the whole workload: the probe admits
	// every arrival and never advances, so nothing completes).
	Backlog int
	// DirtyJobs is the number of jobs marked dirty before each round.
	DirtyJobs int
}

// RoundScanBench admits the simulator's entire workload as a standing
// backlog, saturates the cluster with warm-up rounds, then times rounds
// in which a dirtyFrac fraction of the live jobs is re-marked dirty —
// the "typical online round" of a loaded cluster. The simulator must be
// freshly constructed (no ticks run); it is consumed by the probe and
// not reusable afterwards. Timing goes through the same SchedSeconds
// counter as the production round loop, so the probe measures exactly
// what the scheduler's Schedule call costs and nothing else.
func (s *Simulator) RoundScanBench(dirtyFrac float64, rounds int) (RoundScan, error) {
	if s.counters.SchedRounds != 0 {
		return RoundScan{}, fmt.Errorf("sim: RoundScanBench needs a fresh simulator")
	}
	if dirtyFrac < 0 || dirtyFrac > 1 || math.IsNaN(dirtyFrac) {
		return RoundScan{}, fmt.Errorf("sim: dirty fraction %v out of [0,1]", dirtyFrac)
	}
	if rounds <= 0 {
		return RoundScan{}, fmt.Errorf("sim: need at least one measured round")
	}
	// Jump past every arrival and admit the whole workload in one call.
	// 2^50 seconds is beyond any trace's arrival window while keeping
	// exact float64 integer arithmetic for the clamped slack/wait terms
	// downstream priority math derives from Now.
	s.now = float64(int64(1) << 50)
	if err := s.admitArrivals(); err != nil {
		return RoundScan{}, err
	}
	if len(s.active) == 0 {
		return RoundScan{}, fmt.Errorf("sim: workload admitted no jobs")
	}
	// Warm-up: the first round fills the cluster, the second settles the
	// caches (priority engine, feasibility memo, no-fit frontier) so the
	// measured rounds see the steady backlogged state.
	s.runScheduler()
	s.runScheduler()
	nDirty := int(dirtyFrac * float64(len(s.active)))
	if nDirty > len(s.active) {
		nDirty = len(s.active)
	}
	backlog := len(s.active)
	startSec, startRounds := s.counters.SchedSeconds, s.counters.SchedRounds
	times := make([]float64, rounds)
	for r := range times {
		for _, j := range s.active[:nDirty] {
			s.ctx.MarkDirty(j)
		}
		before := s.counters.SchedSeconds
		s.runScheduler()
		times[r] = s.counters.SchedSeconds - before
	}
	measured := s.counters.SchedRounds - startRounds
	sort.Float64s(times)
	median := times[rounds/2]
	if rounds%2 == 0 {
		median = (times[rounds/2-1] + median) / 2
	}
	return RoundScan{
		RoundSec:       (s.counters.SchedSeconds - startSec) / float64(measured),
		RoundMedianSec: median,
		Rounds:         measured,
		Backlog:        backlog,
		DirtyJobs:      nDirty,
	}, nil
}
