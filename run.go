package mlfs

import (
	"fmt"
	"os"
	"runtime"
	"sync"

	"mlfs/internal/cluster"
	"mlfs/internal/philly"
	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// Snapshot error classes, re-exported so CLI callers can decide between
// "wrong file" and "damaged file" without importing internal packages.
var (
	// ErrSnapshotCorrupt marks a snapshot that cannot be decoded:
	// truncation, bit corruption, checksum failure.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrSnapshotVersion marks a snapshot written by an incompatible
	// format version of this package.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotMismatch marks a well-formed snapshot that belongs to a
	// different run configuration than the one being resumed.
	ErrSnapshotMismatch = snapshot.ErrMismatch
)

// ClusterPreset selects one of the paper's two cluster scales.
type ClusterPreset string

const (
	// PaperReal is the real-experiment testbed: 20 servers × 4 V100
	// GPUs = 80 GPUs (§4.1).
	PaperReal ClusterPreset = "paper-real"
	// PaperSim is the large-scale simulation cluster: 550 servers,
	// 2474 GPUs, matching the Philly trace (§4.1).
	PaperSim ClusterPreset = "paper-sim"
)

// Options configure one simulation run.
type Options struct {
	// Scheduler is a name accepted by NewScheduler, or leave empty and
	// set Sched directly.
	Scheduler string
	// Sched overrides Scheduler with a ready-made policy instance.
	Sched Scheduler
	// SchedOpts tune the MLFS-family schedulers and seed RL policies.
	SchedOpts SchedulerOptions

	// Jobs and Seed drive trace generation when Trace is nil.
	Jobs int
	Seed int64
	// TraceDurationSec is the arrival window (default one week scaled to
	// the workload — see GenerateTrace).
	TraceDurationSec float64
	// Trace supplies a pre-built workload, overriding Jobs/Seed.
	Trace *Trace
	// Source streams the workload one record at a time instead of
	// materialising it up front, overriding Trace and Jobs/Seed. Records
	// must arrive in nondecreasing ArrivalSec order (SyntheticPhillySource
	// and NewSliceSource satisfy this by construction). With a source,
	// peak memory tracks the number of concurrently live jobs, not the
	// total submission count — the mode for Philly-scale runs.
	Source TraceSource

	// Preset selects the cluster scale (default PaperReal). Servers and
	// GPUsPerServer, when both non-zero, override the preset.
	Preset        ClusterPreset
	Servers       int
	GPUsPerServer int

	// TickSec, HR, HS override the scheduling period and overload
	// thresholds (§4.1 defaults: 60 s, 0.9, 0.9).
	TickSec float64
	HR, HS  float64
	// DemandWobble overrides the task demand variation amplitude
	// (default 0.35; pass a negative value to disable).
	DemandWobble float64

	// Straggler injection (extension; see internal/sim): probability per
	// job per tick of a StragglerSlow× slowdown, and whether to mitigate
	// by task replication.
	StragglerProb       float64
	StragglerSlow       float64
	ReplicateStragglers bool

	// Failures configures server fault injection with checkpoint/restart
	// recovery (see FailureConfig). The zero value disables it. The
	// failure trace depends only on Failures.Seed and the cluster size,
	// so every scheduler in a comparison faces identical failures.
	Failures FailureConfig

	// SnapshotEvery > 0 makes the run write a crash-consistent snapshot
	// of its complete state to SnapshotPath every SnapshotEvery ticks
	// (atomic write-then-rename, so a crash mid-write leaves the previous
	// snapshot intact). Resume continues such a run bit-identically. 0
	// (the default) disables snapshotting entirely and costs nothing.
	SnapshotEvery int
	// SnapshotPath is the snapshot file location; required when
	// SnapshotEvery > 0.
	SnapshotPath string
}

// FailureConfig configures fault injection: seeded MTTF/MTTR server
// failure processes, checkpointing every K iterations, and per-job
// retry budgets (alias of the simulator's config; see internal/sim).
type FailureConfig = sim.FailureConfig

func (o Options) clusterConfig() cluster.Config {
	if o.Servers > 0 && o.GPUsPerServer > 0 {
		return cluster.Config{
			Servers: o.Servers, GPUsPerServer: o.GPUsPerServer,
			GPUCapacity: 1, CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200,
		}
	}
	if o.Preset == PaperSim {
		return cluster.PaperSimConfig()
	}
	return cluster.PaperRealConfig()
}

// DefaultTraceDuration returns the arrival window used when none is
// given: it scales with the job count so the cluster stays under the
// sustained pressure the paper's evaluation exercises (makespans of tens
// of hours at the top job counts, Figs. 4–5). The calibration is for the
// paper's 80-GPU testbed; DurationForCluster rescales it to other sizes.
func DefaultTraceDuration(jobs int) float64 {
	return DurationForCluster(jobs, 80)
}

// DurationForCluster returns the arrival window that subjects a cluster
// of the given GPU count to the same sustained pressure the 80-GPU
// calibration produces: 75 s per job at 80 GPUs, scaled inversely with
// capacity.
func DurationForCluster(jobs, gpus int) float64 {
	if gpus <= 0 {
		gpus = 80
	}
	d := float64(jobs) * 75 * 80 / float64(gpus)
	if d < 3600 {
		d = 3600
	}
	return d
}

// GenerateTrace creates a deterministic Philly-calibrated synthetic
// workload of n jobs arriving over durationSec (default: one week).
func GenerateTrace(n int, seed int64, durationSec float64) *Trace {
	return trace.Generate(trace.GenConfig{Jobs: n, Seed: seed, DurationSec: durationSec})
}

// TraceSource streams a workload one record at a time (alias of the
// internal interface). Set Options.Source to run without materialising
// the whole trace.
type TraceSource = trace.Source

// SyntheticPhillySource builds a seeded, streaming Philly-scale
// workload source: record i is a pure function of (seed, i), arrivals
// follow the diurnal intensity of GenerateTrace over durationSec
// (default: the Philly trace's 18 weeks), and no record slice is ever
// materialised — memory stays flat at any job count.
func SyntheticPhillySource(jobs int, seed int64, durationSec float64) TraceSource {
	return philly.NewSynthetic(philly.SynthConfig{Jobs: jobs, Seed: seed, DurationSec: durationSec})
}

// NewSliceSource adapts a materialised Trace into a TraceSource
// (arrival-sorted, as the streaming contract requires). Options.Trace
// runs through one internally, so a run over it is bit-identical to the
// same run with the Trace set directly.
func NewSliceSource(t *Trace) TraceSource {
	return trace.NewSliceSource(t)
}

// LoadTraceCSV reads a trace previously saved with SaveTraceCSV.
func LoadTraceCSV(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadCSV(f)
}

// LoadPhillyTrace converts a real Microsoft Philly trace file
// (cluster_job_log from msr-fiddle/philly-traces — the workload behind
// the paper's Figure 5) into a runnable workload. maxJobs truncates
// (0 = all); seed fills the fields the trace does not carry.
func LoadPhillyTrace(path string, maxJobs int, seed int64) (*Trace, error) {
	return philly.LoadFile(path, philly.Options{Seed: seed, MaxJobs: maxJobs})
}

// SaveTraceCSV writes a trace to path.
func SaveTraceCSV(t *Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// simConfig resolves opts into the simulator's configuration: scheduler
// by name when no instance is given, trace generation when none is
// supplied, cluster preset resolution. The simulator only ingests a
// stream, so a trace — given or generated — runs through a fresh
// SliceSource per call.
func simConfig(opts Options) (sim.Config, error) {
	s := opts.Sched
	if s == nil {
		if opts.Scheduler == "" {
			return sim.Config{}, fmt.Errorf("mlfs: no scheduler given")
		}
		var err error
		s, err = NewScheduler(opts.Scheduler, opts.SchedOpts)
		if err != nil {
			return sim.Config{}, err
		}
	}
	src := opts.Source
	if src == nil {
		tr := opts.Trace
		if tr == nil {
			if opts.Jobs <= 0 {
				return sim.Config{}, fmt.Errorf("mlfs: no trace, no source and no job count given")
			}
			dur := opts.TraceDurationSec
			if dur <= 0 {
				dur = DurationForCluster(opts.Jobs, opts.clusterConfig().TotalGPUs())
			}
			tr = GenerateTrace(opts.Jobs, opts.Seed, dur)
		}
		src = trace.NewSliceSource(tr)
	}
	return sim.Config{
		Cluster:             opts.clusterConfig(),
		Source:              src,
		Scheduler:           s,
		TickSec:             opts.TickSec,
		HR:                  opts.HR,
		HS:                  opts.HS,
		DemandWobble:        opts.DemandWobble,
		StragglerProb:       opts.StragglerProb,
		StragglerSlow:       opts.StragglerSlow,
		ReplicateStragglers: opts.ReplicateStragglers,
		Failures:            opts.Failures,
		SnapshotEvery:       opts.SnapshotEvery,
		SnapshotPath:        opts.SnapshotPath,
	}, nil
}

// newSimulator builds the simulator simConfig describes.
func newSimulator(opts Options) (*sim.Simulator, error) {
	cfg, err := simConfig(opts)
	if err != nil {
		return nil, err
	}
	return sim.New(cfg)
}

// Run executes one simulation and returns the paper's metrics.
func Run(opts Options) (*Result, error) {
	simulator, err := newSimulator(opts)
	if err != nil {
		return nil, err
	}
	return simulator.Run()
}

// Resume continues a run from a snapshot written by a previous Run with
// SnapshotEvery set, producing metrics bit-identical to the run that was
// interrupted — provided opts describes the same run (same scheduler,
// trace/Jobs/Seed and simulation parameters; the snapshot options
// themselves may differ). A snapshot from a different run fails with
// ErrSnapshotMismatch; unreadable or tampered bytes fail with
// ErrSnapshotCorrupt (callers typically fall back to a fresh Run).
func Resume(path string, opts Options) (*Result, error) {
	payload, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	simulator, err := newSimulator(opts)
	if err != nil {
		return nil, err
	}
	if err := simulator.Restore(payload); err != nil {
		return nil, err
	}
	return simulator.Run()
}

// Compare runs every named scheduler over every job count with otherwise
// identical options and workloads — the sweep behind Figures 4 and 5.
// The result is indexed results[scheduler][i] for jobCounts[i].
//
// Runs are independent simulations, so they execute in parallel across
// CPUs; each run stays internally deterministic, so the overall result is
// reproducible regardless of parallelism.
func Compare(schedulers []string, jobCounts []int, base Options) (map[string][]*Result, error) {
	for _, jc := range jobCounts {
		if jc < 1 {
			return nil, fmt.Errorf("mlfs: job count %d: want at least 1", jc)
		}
	}
	type cell struct {
		res *Result
		err error
	}
	cells := make([][]cell, len(schedulers))
	for i := range cells {
		cells[i] = make([]cell, len(jobCounts))
	}
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for ji, jc := range jobCounts {
		dur := base.TraceDurationSec
		if dur <= 0 {
			dur = DurationForCluster(jc, base.clusterConfig().TotalGPUs())
		}
		// One trace per job count, shared by every scheduler; each run
		// re-materialises its own jobs from it, so no state is shared.
		tr := GenerateTrace(jc, base.Seed, dur)
		for si, name := range schedulers {
			wg.Add(1)
			go func(si, ji int, name string, jc int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				opts := base
				opts.Jobs = jc
				opts.Scheduler = name
				opts.Sched = nil
				opts.Trace = tr
				res, err := Run(opts)
				if err != nil {
					err = fmt.Errorf("mlfs: %s at %d jobs: %w", name, jc, err)
				}
				cells[si][ji] = cell{res, err}
			}(si, ji, name, jc)
		}
	}
	wg.Wait()
	out := make(map[string][]*Result, len(schedulers))
	for si, name := range schedulers {
		for ji := range jobCounts {
			c := cells[si][ji]
			if c.err != nil {
				return nil, c.err
			}
			out[name] = append(out[name], c.res)
		}
	}
	return out, nil
}
