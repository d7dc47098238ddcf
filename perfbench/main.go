// Command perfbench is the repository benchmark. One run measures one
// workload and prints, as its last line, a JSON object with the
// correctness verdict, the operation counts and either every end-to-end
// metric (-trace 0) or every per-layer metric (-trace 1); see README.md
// for the workloads, the metrics and which layer should move which
// end-to-end number.
//
//	go run . -workload philly-fifo -seed 1 -seconds 20 -trace 0
//
// It must run from the root of a checkout of the repository: the
// served workload keeps its journal and snapshots under .bench_build/
// there, and traced runs write their spans next to them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// setupBlock is how many set-ups a batch run times in a row; it
	// times a block before its first simulation and after each one, and
	// setup_s is the median over all of them, since a single set-up of
	// well under a millisecond is mostly noise.
	setupBlock = 16
	// latencyLimitMs is the goodput latency limit (BENCHMARK.json states
	// the same value; a test keeps them equal).
	latencyLimitMs = 25.0
	// latencyParts is how many consecutive parts partQuantiles splits a
	// latency sample into.
	latencyParts = 3
	// memPeriod is the RSS sampling period.
	memPeriod = 10 * time.Millisecond
)

// runConfig is one invocation's fixed parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	work     string // scratch directory for this run, under .bench_build
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	errs              []error
	values            map[string]float64
	samples           map[string]quantile
	params            map[string]any
	spans             *recorder
}

func (o *outcome) fail(err error) { o.errs = append(o.errs, err) }

var workloads = map[string]func(runConfig) (*outcome, error){
	"philly-fifo": func(rc runConfig) (*outcome, error) { return runBatch(phillyFIFOSpec(rc.seconds), rc) },
	"paper-mlfs":  func(rc runConfig) (*outcome, error) { return runBatch(paperMLFSSpec(rc.seconds), rc) },
	"serve-mixed": runServed,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var rc runConfig
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "workload: philly-fifo, paper-mlfs or serve-mixed")
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed")
	flag.IntVar(&rc.seconds, "seconds", 20, "length of the measured part of the run, seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	measure, ok := workloads[rc.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", rc.workload)
	}
	if rc.seconds < 1 || trace < 0 || trace > 1 {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	rc.traced = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	rc.work = filepath.Join(root, ".bench_build", "perfbench",
		fmt.Sprintf("%s-seed%d-trace%d-%d", rc.workload, rc.seed, trace, os.Getpid()))
	if err := os.MkdirAll(rc.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(rc.work)

	enc := json.NewEncoder(os.Stdout)
	hdr := map[string]any{
		"machine":  describeMachine(root),
		"workload": rc.workload,
		"seed":     rc.seed,
		"seconds":  rc.seconds,
		"trace":    trace,
		"params":   workloadParams(rc),
	}
	if err := enc.Encode(map[string]any{"header": hdr}); err != nil {
		return err
	}

	steal0, total0 := cpuSteal()
	out, err := measure(rc)
	if err != nil {
		return err
	}
	steal1, total1 := cpuSteal()
	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	ms, err := collect(defs, out.values)
	if err != nil {
		return err
	}
	summary := map[string]any{"samples": out.samples, "detail": out.params}
	if total1 > total0 {
		// CPU time the hypervisor gave to other guests during the run:
		// the main source of run-to-run noise on a shared host.
		summary["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if out.spans != nil {
		path := filepath.Join(root, ".bench_build", "perfbench",
			fmt.Sprintf("spans-%s-seed%d.tsv", rc.workload, rc.seed))
		if err := out.spans.write(path); err != nil {
			return err
		}
		summary["spans"] = path
		summary["spans_origin_unix_ns"] = out.spans.origin.UnixNano()
	}
	var problems []string
	for _, e := range out.errs {
		problems = append(problems, e.Error())
	}
	summary["problems"] = problems
	if err := enc.Encode(map[string]any{"summary": summary}); err != nil {
		return err
	}
	res := result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: ms}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("correctness check failed: %v", problems)
	}
	return nil
}

// workloadParams lists the fixed inputs of the workload for the header.
func workloadParams(rc runConfig) map[string]any {
	switch rc.workload {
	case "serve-mixed":
		sp := servedSpecFor(rc.seconds, rc.traced)
		return map[string]any{
			"scheduler":            "mlf-h",
			"cluster":              "paper-sim",
			"servers":              sp.cluster.Servers,
			"gpus":                 sp.cluster.TotalGPUs(),
			"warmup_jobs":          sp.warmupJobs,
			"jobs":                 sp.jobs,
			"submit_rate_per_s":    sp.submitRate,
			"read_rate_per_s":      sp.readRate,
			"measured_phase_s":     float64(sp.jobs) / sp.submitRate,
			"timescale":            sp.timescale,
			"snapshot_every_ticks": sp.snapshotEvery,
			"lead_wall_s":          sp.lead.Seconds(),
			"latency_limit_ms":     latencyLimitMs,
			"connections":          sp.lanes(),
			"setup_reps":           servedSetupReps,
		}
	default:
		spec := phillyFIFOSpec(rc.seconds)
		if rc.workload == "paper-mlfs" {
			spec = paperMLFSSpec(rc.seconds)
		}
		return map[string]any{
			"scheduler": spec.scheduler, "servers": spec.cluster.Servers,
			"gpus": spec.cluster.TotalGPUs(), "jobs": spec.jobs,
			"arrival_window_s": spec.windowSec, "horizon_s": spec.horizonSec,
			"simulations": spec.runs, "latency_limit_ms": latencyLimitMs, "setup_reps": setupBlock * (spec.runs + 1),
		}
	}
}
