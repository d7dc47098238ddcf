package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"mlfs"
)

// The scale benchmark measures how the simulator's per-decision cost
// and memory footprint grow with workload size: Philly-scale job counts
// (up to the trace's 100k+ submissions) on the paper's two cluster
// scales, streamed through the synthetic Philly source so no run ever
// materialises its whole workload. The headline number is the
// ns-per-decision growth from 1k to 100k jobs — flat-ish growth is the
// evidence that the sparse core's per-decision cost tracks live jobs,
// not total submissions.

// scaleBenchJobs and scaleBenchServers define the default sweep.
var (
	scaleBenchJobs    = []int{1_000, 10_000, 100_000}
	scaleBenchServers = []int{55, 550}
)

// scaleBenchSchedulers are the policies profiled: the two classic
// references plus the paper's heuristic core. (MLF-RL trains a neural
// policy per decision; its cost is measured by perfbench's paper-mlfs
// workload and the internal/nn benchmarks.)
var scaleBenchSchedulers = []string{"fifo", "srtf", "mlf-h"}

// scaleBenchEntry is one (scheduler, jobs, servers) cell. The round_*
// columns profile the incremental dirty-set rounds: every cell also runs
// a FullRescan oracle twin (bit-identical results, enforced below) whose
// per-round cost anchors the speedup column.
type scaleBenchEntry struct {
	Scheduler     string  `json:"scheduler"`
	Jobs          int     `json:"jobs"`
	Servers       int     `json:"servers"`
	GPUs          int     `json:"gpus"`
	WallSeconds   float64 `json:"wall_seconds"`
	Decisions     int     `json:"decisions"` // placements + migrations + evictions + scheduling rounds
	NsPerDecision float64 `json:"ns_per_decision"`
	PeakHeapMB    float64 `json:"peak_heap_mb"`
	SimulatedDays float64 `json:"simulated_days"`
	AvgJCTMin     float64 `json:"avg_jct_min"`
	Completed     int     `json:"completed"` // jobs that ran to completion (neither truncated nor rejected)
	Truncated     int     `json:"truncated"`
	Rejected      int     `json:"rejected"`

	SchedRounds       int     `json:"sched_rounds"`
	RoundUs           float64 `json:"round_us"`             // avg wall µs per scheduling round (incremental)
	AvgDirtyJobs      float64 `json:"avg_dirty_jobs"`       // avg dirty-set size delivered per round
	DirtyFraction     float64 `json:"dirty_fraction"`       // AvgDirtyJobs / workload size
	SkippedRounds     int     `json:"skipped_rounds"`       // rounds proven no-ops (fifo/srtf skip proofs)
	FullRescanRoundUs float64 `json:"full_rescan_round_us"` // oracle twin's avg round µs
	RoundSpeedup      float64 `json:"round_speedup"`        // FullRescanRoundUs / RoundUs

	// The backlog_round_* columns come from the round-scan probe
	// (mlfs.RoundScanBench): the whole workload admitted as a standing
	// backlog, 1% of jobs re-marked dirty per round. The keep-up columns
	// above measure rounds dominated by placement and migration work both
	// modes share; the probe isolates the scan-and-rank component, where
	// the dirty-set structure is the difference between O(dirty) and
	// O(backlog) — the regime of the incremental-round acceptance bar.
	BacklogJobs            int     `json:"backlog_jobs"`                 // standing backlog the probe measures against
	BacklogDirtyFraction   float64 `json:"backlog_dirty_fraction"`       // fraction of jobs re-marked dirty per probe round
	BacklogRoundUs         float64 `json:"backlog_round_us"`             // incremental probe round µs
	BacklogFullRescanRound float64 `json:"backlog_full_rescan_round_us"` // oracle probe round µs
	BacklogRoundSpeedup    float64 `json:"backlog_round_speedup"`        // oracle / incremental
}

// scaleBenchReport is the BENCH_scale.json schema.
type scaleBenchReport struct {
	GeneratedAt string            `json:"generated_at"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Seed        int64             `json:"seed"`
	Headline    string            `json:"headline"`
	Entries     []scaleBenchEntry `json:"entries"`
}

// runScaleBench sweeps schedulers × job counts × cluster sizes and
// writes BENCH_scale.json. Every cell streams a synthetic Philly
// workload (seeded, so every scheduler at a given size faces the
// identical submission sequence) over an arrival window scaled to keep
// cluster pressure comparable across sizes.
func runScaleBench(path string, seed int64, jobCounts, serverCounts []int, schedulers []string) error {
	report := scaleBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        seed,
	}
	for _, servers := range serverCounts {
		for _, jobs := range jobCounts {
			for _, schedName := range schedulers {
				entry, err := scaleBenchCell(schedName, jobs, servers, seed)
				if err != nil {
					return err
				}
				report.Entries = append(report.Entries, entry)
				fmt.Printf("scalebench %-7s jobs=%-7d servers=%-4d wall %8.2fs  %9.0f ns/decision  peak heap %7.1f MB  round %9.1fµs (oracle %9.1fµs, %4.1fx)  dirty/round %7.1f  backlog round %9.1fµs (oracle %11.1fµs, %5.1fx)\n",
					schedName, jobs, servers, entry.WallSeconds, entry.NsPerDecision, entry.PeakHeapMB,
					entry.RoundUs, entry.FullRescanRoundUs, entry.RoundSpeedup, entry.AvgDirtyJobs,
					entry.BacklogRoundUs, entry.BacklogFullRescanRound, entry.BacklogRoundSpeedup)
			}
		}
	}
	report.Headline = scaleHeadline(report.Entries)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%-10s -> %s\n", "scalebench", path)
	if report.Headline != "" {
		fmt.Println(report.Headline)
	}
	return nil
}

// phillyDuration returns the arrival window that reproduces the real
// Philly trace's submission density — 117,325 jobs over 18 weeks on
// 2474 GPUs — rescaled to the cell's GPU count. At this density the
// cluster keeps up with arrivals, so the live-job population is set by
// the workload's natural concurrency, not by an ever-growing backlog;
// that is the regime in which ns-per-decision isolates the scheduler's
// per-decision cost. (DurationForCluster's pressure calibration is ~30×
// denser: it measures behaviour under sustained overload, where cost is
// dominated by backlog length and grows with total submissions.)
func phillyDuration(jobs, gpus int) float64 {
	const phillyJobSpacingSec = 18 * 7 * 24 * 3600.0 / 117_325 // ≈92.8 s per job at 2474 GPUs
	return float64(jobs) * phillyJobSpacingSec * 2474 / float64(gpus)
}

// scaleBenchCell runs one cell under a heap-watermark sampler: once with
// the default incremental rounds (the headline numbers), once with the
// FullRescan oracle. The twin must reproduce the incremental run's
// results bit for bit — the cell fails otherwise, so every regeneration
// of BENCH_scale.json re-proves the equivalence contract at full scale.
func scaleBenchCell(schedName string, jobs, servers int, seed int64) (scaleBenchEntry, error) {
	gpus := servers * 4
	cellOpts := func(fullRescan bool) mlfs.Options {
		return mlfs.Options{
			Scheduler:     schedName,
			Seed:          seed,
			SchedOpts:     mlfs.SchedulerOptions{Seed: seed},
			Servers:       servers,
			GPUsPerServer: 4,
			Source:        mlfs.SyntheticPhillySource(jobs, seed, phillyDuration(jobs, gpus)),
			FullRescan:    fullRescan,
		}
	}
	// Collect the previous cell's garbage (the round probes admit whole
	// workloads) before the watcher starts sampling, so the watermark
	// measures this cell only.
	runtime.GC()
	stop, peak := watchHeap()
	start := time.Now()
	res, err := mlfs.Run(cellOpts(false))
	wall := time.Since(start)
	stop()
	if err != nil {
		return scaleBenchEntry{}, fmt.Errorf("scalebench %s jobs=%d servers=%d: %w", schedName, jobs, servers, err)
	}
	oracle, err := mlfs.Run(cellOpts(true))
	if err != nil {
		return scaleBenchEntry{}, fmt.Errorf("scalebench %s jobs=%d servers=%d (full rescan): %w", schedName, jobs, servers, err)
	}
	if res.AvgJCTSec != oracle.AvgJCTSec || res.MakespanSec != oracle.MakespanSec || //mlfs:allow floatcmp oracle contract is bit-identity, not tolerance
		res.Counters.Placements != oracle.Counters.Placements ||
		res.Counters.Migrations != oracle.Counters.Migrations {
		return scaleBenchEntry{}, fmt.Errorf("scalebench %s jobs=%d servers=%d: incremental run diverged from the full-rescan oracle (JCT %v vs %v)",
			schedName, jobs, servers, res.AvgJCTSec, oracle.AvgJCTSec)
	}
	c := res.Counters
	decisions := c.Placements + c.Migrations + c.Evictions + c.SchedRounds
	entry := scaleBenchEntry{
		Scheduler:     schedName,
		Jobs:          jobs,
		Servers:       servers,
		GPUs:          gpus,
		WallSeconds:   wall.Seconds(),
		Decisions:     decisions,
		PeakHeapMB:    float64(peak.Load()) / (1 << 20),
		SimulatedDays: c.SimulatedSec / 86400,
		AvgJCTMin:     res.AvgJCTSec / 60,
		Completed:     res.Jobs - c.Truncated - c.Rejected,
		Truncated:     c.Truncated,
		Rejected:      c.Rejected,
		SchedRounds:   c.SchedRounds,
		SkippedRounds: c.SkippedRounds,
	}
	if decisions > 0 {
		entry.NsPerDecision = float64(wall.Nanoseconds()) / float64(decisions)
	}
	if c.SchedRounds > 0 {
		entry.RoundUs = c.SchedSeconds / float64(c.SchedRounds) * 1e6
		entry.AvgDirtyJobs = float64(c.DirtyJobs) / float64(c.SchedRounds)
		entry.DirtyFraction = entry.AvgDirtyJobs / float64(jobs)
	}
	if oc := oracle.Counters; oc.SchedRounds > 0 {
		entry.FullRescanRoundUs = oc.SchedSeconds / float64(oc.SchedRounds) * 1e6
	}
	if entry.RoundUs > 0 && entry.FullRescanRoundUs > 0 {
		entry.RoundSpeedup = entry.FullRescanRoundUs / entry.RoundUs
	}

	// Backlogged round-scan probe, incremental vs full-rescan oracle on
	// the identical standing backlog. The Placements checksum pins the
	// two probes to the same decision sequence.
	const backlogDirtyFrac = 0.01
	const probeRounds = 3
	probe, err := mlfs.RoundScanBench(cellOpts(false), backlogDirtyFrac, probeRounds)
	if err != nil {
		return scaleBenchEntry{}, fmt.Errorf("scalebench %s jobs=%d servers=%d (round probe): %w", schedName, jobs, servers, err)
	}
	oracleProbe, err := mlfs.RoundScanBench(cellOpts(true), backlogDirtyFrac, probeRounds)
	if err != nil {
		return scaleBenchEntry{}, fmt.Errorf("scalebench %s jobs=%d servers=%d (round probe oracle): %w", schedName, jobs, servers, err)
	}
	if probe.Placements != oracleProbe.Placements || probe.Backlog != oracleProbe.Backlog {
		return scaleBenchEntry{}, fmt.Errorf("scalebench %s jobs=%d servers=%d: round probe diverged from its full-rescan oracle (placements %d vs %d)",
			schedName, jobs, servers, probe.Placements, oracleProbe.Placements)
	}
	entry.BacklogJobs = probe.Backlog
	entry.BacklogDirtyFraction = backlogDirtyFrac
	entry.BacklogRoundUs = probe.RoundSec * 1e6
	entry.BacklogFullRescanRound = oracleProbe.RoundSec * 1e6
	if entry.BacklogRoundUs > 0 {
		entry.BacklogRoundSpeedup = entry.BacklogFullRescanRound / entry.BacklogRoundUs
	}
	return entry, nil
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

// humanCount renders a job count compactly (100000 -> "100k").
func humanCount(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return fmt.Sprintf("%d", n)
}

// scaleHeadline summarises the acceptance criterion: per-scheduler
// ns-per-decision growth from the smallest to the largest job count on
// the largest cluster.
func scaleHeadline(entries []scaleBenchEntry) string {
	maxServers, minJobs, maxJobs := 0, 0, 0
	for _, e := range entries {
		if e.Servers > maxServers {
			maxServers = e.Servers
		}
		if minJobs == 0 || e.Jobs < minJobs {
			minJobs = e.Jobs
		}
		if e.Jobs > maxJobs {
			maxJobs = e.Jobs
		}
	}
	if minJobs == maxJobs {
		return ""
	}
	at := func(sched string, jobs int) float64 {
		for _, e := range entries {
			if e.Scheduler == sched && e.Jobs == jobs && e.Servers == maxServers {
				return e.NsPerDecision
			}
		}
		return 0
	}
	out := fmt.Sprintf("ns/decision growth %s->%s jobs at %d servers:", humanCount(minJobs), humanCount(maxJobs), maxServers)
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.Scheduler] {
			continue
		}
		seen[e.Scheduler] = true
		small, big := at(e.Scheduler, minJobs), at(e.Scheduler, maxJobs)
		if small > 0 && big > 0 {
			out += fmt.Sprintf(" %s %.2fx", e.Scheduler, big/small)
		}
	}
	speedups := ""
	for _, e := range entries {
		if e.Jobs == maxJobs && e.Servers == maxServers && e.RoundSpeedup > 0 {
			speedups += fmt.Sprintf(" %s %.1fx (dirty %.2f%%)", e.Scheduler, e.RoundSpeedup, e.DirtyFraction*100)
		}
	}
	if speedups != "" {
		out += fmt.Sprintf("; keep-up round speedup vs full-rescan oracle at %s jobs / %d servers:%s",
			humanCount(maxJobs), maxServers, speedups)
	}
	backlog := ""
	for _, e := range entries {
		if e.Jobs == maxJobs && e.Servers == maxServers && e.BacklogRoundSpeedup > 0 {
			backlog += fmt.Sprintf(" %s %.1fx (dirty %.0f%%)", e.Scheduler, e.BacklogRoundSpeedup, e.BacklogDirtyFraction*100)
		}
	}
	if backlog != "" {
		out += fmt.Sprintf("; backlogged round-scan speedup at %s jobs / %d servers:%s",
			humanCount(maxJobs), maxServers, backlog)
	}
	return out
}
