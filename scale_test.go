package mlfs

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mlfs/internal/sim"
)

// BenchmarkPhillyScale measures how the simulator's per-decision cost
// and memory footprint grow with workload size: Philly-scale job counts
// (up to the trace's 100k+ submissions) on the paper's two cluster
// scales, streamed through the synthetic Philly source so no run ever
// materialises its whole workload. Flat ns/decision from 1k to 100k jobs
// is the evidence that the sparse core's per-decision cost tracks live
// jobs, not total submissions.
//
// The full sweep takes about 25 minutes (`make scalebench`); -short runs
// the {200, 400} jobs × 8 servers smoke cells (`make scale`). One cell:
//
//	go test -run '^$' -bench 'BenchmarkPhillyScale/mlf-h/servers=550/jobs=100000$' -benchtime 1x -timeout 0 .
func BenchmarkPhillyScale(b *testing.B) {
	jobCounts, serverCounts := []int{1_000, 10_000, 100_000}, []int{55, 550}
	if testing.Short() {
		jobCounts, serverCounts = []int{200, 400}, []int{8}
	}
	// The two classic references plus the paper's heuristic core. (MLF-RL
	// trains a neural policy per decision; its cost is measured by
	// perfbench's paper-mlfs workload and the internal/nn benchmarks.)
	for _, schedName := range []string{"fifo", "srtf", "mlf-h"} {
		for _, servers := range serverCounts {
			for _, jobs := range jobCounts {
				b.Run(fmt.Sprintf("%s/servers=%d/jobs=%d", schedName, servers, jobs), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						phillyScaleCell(b, schedName, servers, jobs)
					}
				})
			}
		}
	}
}

// phillyDuration returns the arrival window that reproduces the real
// Philly trace's submission density — 117,325 jobs over 18 weeks on
// 2474 GPUs — rescaled to the cell's GPU count. At this density the
// cluster keeps up with arrivals, so the live-job population is set by
// the workload's natural concurrency, not by an ever-growing backlog;
// that is the regime in which ns/decision isolates the scheduler's
// per-decision cost. (DurationForCluster's pressure calibration is ~30×
// denser: it measures behaviour under sustained overload, where cost is
// dominated by backlog length and grows with total submissions.)
func phillyDuration(jobs, gpus int) float64 {
	const phillyJobSpacingSec = 18 * 7 * 24 * 3600.0 / 117_325 // ≈92.8 s per job at 2474 GPUs
	return float64(jobs) * phillyJobSpacingSec * 2474 / float64(gpus)
}

// phillyScaleCell runs one cell and reports its metrics. The cell runs
// the workload under a heap-watermark sampler (the headline numbers),
// then the backlogged round-scan probe: the keep-up run measures rounds
// dominated by placement and migration work, while the probe (the whole
// workload admitted as a standing backlog, 1% of jobs re-marked dirty
// per round) isolates the scan-and-rank component, where the dirty-set
// structure is the difference between O(dirty) and O(backlog).
func phillyScaleCell(b *testing.B, schedName string, servers, jobs int) {
	const seed = 1
	newSim := func() *sim.Simulator {
		cfg, err := simConfig(Options{
			Scheduler:     schedName,
			Seed:          seed,
			SchedOpts:     SchedulerOptions{Seed: seed},
			Servers:       servers,
			GPUsPerServer: 4,
			Source:        SyntheticPhillySource(jobs, seed, phillyDuration(jobs, servers*4)),
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	// Collect the previous cell's garbage (the round probe admits whole
	// workloads) before the watcher starts sampling, so the watermark
	// measures this cell only.
	runtime.GC()
	stop, peak := watchHeap()
	start := time.Now()
	res, err := newSim().Run()
	wall := time.Since(start)
	stop()
	if err != nil {
		b.Fatal(err)
	}

	// Fifteen measured rounds: with three, one descheduled round moved a
	// cell's backlog speedup by 3x between two runs of the same tree.
	const backlogDirtyFrac, probeRounds = 0.01, 15
	backlog, err := newSim().RoundScanBench(backlogDirtyFrac, probeRounds)
	if err != nil {
		b.Fatal(err)
	}

	c := res.Counters
	decisions := c.Placements + c.Migrations + c.Evictions + c.SchedRounds
	b.ReportMetric(float64(decisions), "decisions")
	b.ReportMetric(float64(wall.Nanoseconds())/float64(decisions), "ns/decision")
	b.ReportMetric(float64(peak.Load())/(1<<20), "peak-heap-MB")
	b.ReportMetric(c.SimulatedSec/86400, "sim-days")
	b.ReportMetric(c.SchedSeconds/float64(c.SchedRounds)*1e6, "round-µs")
	b.ReportMetric(float64(c.DirtyJobs)/float64(c.SchedRounds), "dirty-jobs/round")
	b.ReportMetric(backlog.RoundSec*1e6, "backlog-round-µs")
	b.ReportMetric(backlog.RoundMedianSec*1e6, "backlog-round-p50-µs")
	b.ReportMetric(float64(res.Jobs-c.Truncated-c.Rejected), "completed")
	b.ReportMetric(float64(c.Truncated), "truncated")
}

// watchHeap samples the live-heap watermark until stop is called. The
// returned atomic holds the peak HeapAlloc observed (bytes) — an
// in-process proxy for peak RSS that excludes GC headroom, comparable
// across cells because every cell runs the same sampler.
func watchHeap() (stop func(), peak *atomic.Uint64) {
	peak = &atomic.Uint64{}
	done := make(chan struct{})
	finished := make(chan struct{})
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			old := peak.Load()
			if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
				return
			}
		}
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() { close(done); <-finished }, peak
}
