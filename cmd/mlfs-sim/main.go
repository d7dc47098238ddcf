// Command mlfs-sim runs trace-driven scheduling simulations: a single
// run (-scheduler) or a head-to-head comparison of several schedulers
// (-compare), on either of the paper's cluster scales. Long runs can
// write periodic crash-consistent snapshots (-snapshot-every) and be
// continued bit-identically after an interruption (-resume).
//
// Examples:
//
//	mlfs-sim -scheduler mlfs -jobs 620
//	mlfs-sim -compare mlfs,mlf-h,tiresias -jobs 620
//	mlfs-sim -compare all -jobs 155,310,620 -preset paper-real
//	mlfs-sim -scheduler mlfs -jobs 620 -mttf 21600 -snapshot-every 500 -snapshot run.snap
//	mlfs-sim -scheduler mlfs -jobs 620 -mttf 21600 -resume run.snap
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"mlfs"
)

func main() {
	var (
		scheduler = flag.String("scheduler", "", "single scheduler to run (see -list)")
		compare   = flag.String("compare", "", "comma-separated schedulers, or 'all'")
		jobsFlag  = flag.String("jobs", "620", "comma-separated job counts")
		seed      = flag.Int64("seed", 1, "workload + policy seed")
		preset    = flag.String("preset", "paper-real", "cluster preset: paper-real | paper-sim")
		servers   = flag.Int("servers", 0, "override: number of servers")
		gpus      = flag.Int("gpus", 0, "override: GPUs per server")
		traceCSV  = flag.String("trace", "", "load workload from a trace CSV instead of generating")
		list      = flag.Bool("list", false, "list scheduler names and exit")
		sweepP    = flag.String("sweep", "", "sweep one parameter (alpha|gamma|gamma_d|gamma_r|gamma_w|ps|hr|hs) of -scheduler (default mlf-h)")
		sweepV    = flag.String("values", "", "comma-separated sweep values")

		mttf     = flag.Float64("mttf", 0, "mean time to server failure in seconds (0 disables fault injection)")
		mttr     = flag.Float64("mttr", 600, "mean time to server repair in seconds")
		failSeed = flag.Int64("failure-seed", 0, "failure-trace seed (default: -seed)")

		snapEvery = flag.Int("snapshot-every", 0, "write a snapshot every N ticks (0 disables; requires -snapshot)")
		snapPath  = flag.String("snapshot", "", "snapshot file path")
		resume    = flag.String("resume", "", "continue a run from this snapshot file")
	)
	flag.Parse()

	if *list {
		for _, n := range mlfs.SchedulerNames() {
			fmt.Println(n)
		}
		return
	}

	jobCounts, err := parseInts(*jobsFlag)
	if err != nil {
		fatal(err)
	}
	base := mlfs.Options{
		Seed:      *seed,
		SchedOpts: mlfs.SchedulerOptions{Seed: *seed},
		Preset:    mlfs.ClusterPreset(*preset),
		Servers:   *servers, GPUsPerServer: *gpus,
	}
	if *traceCSV != "" {
		tr, err := mlfs.LoadTraceCSV(*traceCSV)
		if err != nil {
			fatal(err)
		}
		base.Trace = tr
	}

	if err := validateFaultFlags(*mttf, *mttr); err != nil {
		fatal(err)
	}
	if *mttf > 0 {
		fs := *failSeed
		if fs == 0 {
			fs = *seed
		}
		base.Failures = mlfs.FailureConfig{MTTFSec: *mttf, MTTRSec: *mttr, Seed: fs}
	}

	if err := validateSnapshotFlags(*snapEvery, *snapPath, *resume); err != nil {
		fatal(err)
	}
	base.SnapshotEvery = *snapEvery
	base.SnapshotPath = *snapPath

	if *sweepP != "" {
		if *resume != "" {
			fatal(fmt.Errorf("-resume applies to a single -scheduler run, not -sweep"))
		}
		base.Scheduler = *scheduler
		runSweep(base, *sweepP, *sweepV, jobCounts[0])
		return
	}

	var names []string
	switch {
	case *compare == "all":
		names = mlfs.SchedulerNames()
	case *compare != "":
		names = strings.Split(*compare, ",")
	case *scheduler != "":
		names = []string{*scheduler}
	default:
		fatal(fmt.Errorf("need -scheduler or -compare (try -list)"))
	}

	if *resume != "" {
		if *compare != "" {
			fatal(fmt.Errorf("-resume applies to a single -scheduler run, not -compare"))
		}
		if len(jobCounts) != 1 {
			fatal(fmt.Errorf("-resume applies to a single job count, got %d", len(jobCounts)))
		}
		if _, err := os.Stat(*resume); err != nil {
			fatal(fmt.Errorf("-resume: %w", err))
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheduler\tjobs\tavgJCT(min)\tmakespan(h)\twait(min)\tddl-ratio\tacc\tacc-ratio\tbw(GB)\tsched(ms)\tmigr\ttrunc")
	for _, jc := range jobCounts {
		for _, name := range names {
			opts := base
			opts.Scheduler = name
			opts.Jobs = jc
			// Run generates the workload deterministically from (jobs,
			// seed, cluster), so every scheduler at the same job count
			// sees an identical trace.
			res, err := runOrResume(opts, *resume)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.3f\t%.3f\t%.3f\t%.1f\t%.3f\t%d\t%d\n",
				res.Scheduler, res.Jobs, res.AvgJCTSec/60, res.MakespanSec/3600,
				res.AvgWaitSec/60, res.DeadlineRatio, res.AvgAccuracy, res.AccuracyRatio,
				res.Counters.BandwidthMB/1024, res.SchedOverheadMS(),
				res.Counters.Migrations, res.Counters.Truncated)
		}
	}
	w.Flush()
}

// validateFaultFlags rejects fault-injection flag combinations with a
// clear message instead of letting them surface as config errors later.
func validateFaultFlags(mttf, mttr float64) error {
	if mttf < 0 {
		return fmt.Errorf("-mttf must be >= 0 (0 disables fault injection), got %v", mttf)
	}
	if mttf > 0 && mttr <= 0 {
		return fmt.Errorf("-mttr must be > 0 when -mttf is set, got %v", mttr)
	}
	return nil
}

// validateSnapshotFlags rejects snapshot flag combinations that would
// silently do nothing or have nowhere to write.
func validateSnapshotFlags(every int, path, resume string) error {
	switch {
	case every < 0:
		return fmt.Errorf("-snapshot-every must be >= 0 (0 disables snapshotting), got %d", every)
	case every > 0 && path == "":
		return fmt.Errorf("-snapshot-every %d needs -snapshot <path> to write to", every)
	case every == 0 && path != "" && resume == "":
		return fmt.Errorf("-snapshot %q has no effect without -snapshot-every N", path)
	}
	return nil
}

// runOrResume continues from a snapshot when one is given, degrading to
// a fresh run — with a warning, never a crash — when the snapshot file
// is corrupt or from an incompatible format version. A snapshot of a
// different run configuration stays fatal: silently computing something
// other than what was asked for would be worse than stopping.
func runOrResume(opts mlfs.Options, resumePath string) (*mlfs.Result, error) {
	if resumePath == "" {
		return mlfs.Run(opts)
	}
	res, err := mlfs.Resume(resumePath, opts)
	if errors.Is(err, mlfs.ErrSnapshotCorrupt) || errors.Is(err, mlfs.ErrSnapshotVersion) {
		fmt.Fprintf(os.Stderr, "mlfs-sim: warning: snapshot %s unusable (%v); restarting from zero\n", resumePath, err)
		return mlfs.Run(opts)
	}
	return res, err
}

// runSweep executes the parameter sensitivity sweep and prints one row
// per value.
func runSweep(base mlfs.Options, param, valuesCSV string, jobs int) {
	var values []float64
	for _, part := range strings.Split(valuesCSV, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad sweep value %q", part))
		}
		values = append(values, v)
	}
	if len(values) == 0 {
		fatal(fmt.Errorf("-sweep needs -values"))
	}
	base.Jobs = jobs
	points, err := mlfs.Sweep(param, values, base)
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s\tavgJCT(min)\tddl-ratio\tacc\tacc-ratio\tbw(GB)\n", param)
	for _, p := range points {
		r := p.Result
		fmt.Fprintf(w, "%g\t%.1f\t%.3f\t%.3f\t%.3f\t%.1f\n",
			p.Value, r.AvgJCTSec/60, r.DeadlineRatio, r.AvgAccuracy, r.AccuracyRatio,
			r.Counters.BandwidthMB/1024)
	}
	w.Flush()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad job count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlfs-sim:", err)
	os.Exit(1)
}
