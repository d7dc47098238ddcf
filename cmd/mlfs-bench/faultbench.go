package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mlfs"
)

// faultBenchMTTFs is the MTTF sweep (seconds): no failures, then one
// failure per server-day, per-6-hours and per-2-hours — from Philly-like
// reliability down to a hostile cluster.
var faultBenchMTTFs = []float64{0, 86400, 21600, 7200}

// faultBenchSchedulers are the policies compared under failures: MLFS
// and its heuristic core against the time-quantum and packing baselines
// the paper leans on.
var faultBenchSchedulers = []string{"mlfs", "mlf-h", "tiresias", "gandiva", "tensorflow"}

// faultBenchEntry is one (scheduler, MTTF) cell of the degradation sweep.
type faultBenchEntry struct {
	Scheduler        string  `json:"scheduler"`
	MTTFSec          float64 `json:"mttf_sec"` // 0 = failure-free baseline
	AvgJCTMin        float64 `json:"avg_jct_min"`
	DegradationPct   float64 `json:"jct_degradation_pct"` // vs the same scheduler at MTTF=0
	DeadlineRatio    float64 `json:"deadline_ratio"`
	ServerFailures   int     `json:"server_failures"`
	FailureEvictions int     `json:"failure_evictions"`
	WorkLostIters    float64 `json:"work_lost_iters"`
	JobRestarts      int     `json:"job_restarts"`
	JobsKilled       int     `json:"jobs_killed"`
	WallSeconds      float64 `json:"wall_seconds"`
}

// faultBenchReport is the BENCH_fault.json schema.
type faultBenchReport struct {
	GeneratedAt string            `json:"generated_at"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Seed        int64             `json:"seed"`
	Jobs        int               `json:"jobs"`
	MTTRSec     float64           `json:"mttr_sec"`
	FailureSeed int64             `json:"failure_seed"`
	Entries     []faultBenchEntry `json:"entries"`
}

// runFaultBench sweeps JCT degradation versus MTTF for every scheduler
// under the identical workload and identical failure traces, and writes
// BENCH_fault.json. Every cell of a given MTTF column faces the same
// failure event sequence (the fault process is seeded independently of
// the policy), so differences are pure scheduling quality under churn.
func runFaultBench(path string, seed int64, jobs int, mttfs []float64) error {
	const mttrSec = 600
	report := faultBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        seed,
		Jobs:        jobs,
		MTTRSec:     mttrSec,
		FailureSeed: seed,
	}
	tr := mlfs.GenerateTrace(jobs, seed, mlfs.DefaultTraceDuration(jobs))
	baseJCT := make(map[string]float64)
	for _, schedName := range faultBenchSchedulers {
		for _, mttf := range mttfs {
			opts := mlfs.Options{
				Scheduler: schedName,
				Seed:      seed,
				SchedOpts: mlfs.SchedulerOptions{Seed: seed},
				Preset:    mlfs.PaperReal,
				Trace:     tr,
			}
			if mttf > 0 {
				opts.Failures = mlfs.FailureConfig{MTTFSec: mttf, MTTRSec: mttrSec, Seed: seed}
			}
			start := time.Now()
			res, err := mlfs.Run(opts)
			if err != nil {
				return err
			}
			entry := faultBenchEntry{
				Scheduler:        schedName,
				MTTFSec:          mttf,
				AvgJCTMin:        res.AvgJCTSec / 60,
				DeadlineRatio:    res.DeadlineRatio,
				ServerFailures:   res.Counters.ServerFailures,
				FailureEvictions: res.Counters.FailureEvictions,
				WorkLostIters:    res.Counters.WorkLostIters,
				JobRestarts:      res.Counters.JobRestarts,
				JobsKilled:       res.Counters.JobsKilled,
				WallSeconds:      time.Since(start).Seconds(),
			}
			if mttf == 0 {
				baseJCT[schedName] = res.AvgJCTSec
			} else if base := baseJCT[schedName]; base > 0 {
				entry.DegradationPct = (res.AvgJCTSec - base) / base * 100
			}
			report.Entries = append(report.Entries, entry)
			fmt.Printf("faultbench %-10s mttf=%6.0fs  avgJCT %7.1f min  (+%5.1f%%)  fail=%d lost=%.0f restarts=%d kills=%d\n",
				schedName, mttf, entry.AvgJCTMin, entry.DegradationPct,
				entry.ServerFailures, entry.WorkLostIters, entry.JobRestarts, entry.JobsKilled)
		}
	}
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
	fmt.Printf("%-10s -> %s\n", "faultbench", path)
	return nil
}
