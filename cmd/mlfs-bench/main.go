// Command mlfs-bench regenerates every figure of the paper's evaluation
// (Figs. 4–9 plus the in-text makespan comparison), writes one TSV per
// figure into -out, and checks the measured results against the paper's
// expected orderings (shape.txt).
//
// With -simbench it instead profiles the simulator hot path itself
// (ns/tick, allocs/tick, jobs per wall-second) and writes the machine-readable BENCH_sim.json used to
// track scheduler-loop performance across revisions.
//
// With -nnbench it profiles the MLF-RL policy engine: the end-to-end
// mlf-rl Figure-4 sweep plus per-decision scoring and imitation-update
// micro paths, batched engine vs the historical per-candidate
// reference, written to BENCH_nn.json.
//
// With -faultbench it sweeps JCT degradation versus server MTTF under
// fault injection (identical failure traces for every scheduler) and
// writes BENCH_fault.json.
//
// Examples:
//
//	mlfs-bench -out results/                   # everything, Figure-4 scale
//	mlfs-bench -out results/ -figure fig4      # just the Figure-4 family
//	mlfs-bench -out results/ -scale 100        # Figure 5 at 1/100 job counts
//	mlfs-bench -out results/ -quick -ascii     # fast pass with ASCII charts
//	mlfs-bench -out results/ -simbench         # hot-path numbers -> BENCH_sim.json
//	mlfs-bench -out results/ -faultbench       # MTTF sweep -> BENCH_fault.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mlfs"
)

func main() {
	var (
		out      = flag.String("out", "results", "output directory for TSV files")
		figure   = flag.String("figure", "all", "fig4, fig5, fig6..fig9, makespan, or all")
		scale    = flag.Int("scale", 100, "divisor for Figure 5 job counts (1 = paper scale)")
		seed     = flag.Int64("seed", 1, "workload and policy seed")
		quick    = flag.Bool("quick", false, "use reduced job counts everywhere")
		schedCS  = flag.String("schedulers", "", "comma-separated scheduler subset (default: all)")
		ascii    = flag.Bool("ascii", false, "also print each figure as an ASCII chart")
		countsCS = flag.String("counts", "", "override Figure 4/6-9 job counts (comma-separated)")
		simMax   = flag.Int("sim-counts", 3, "how many Figure 5 job counts to run (1-5)")
		simbench = flag.Bool("simbench", false, "profile the simulator hot path and write BENCH_sim.json")
		benchJob = flag.Int("simbench-jobs", 155, "job count for -simbench runs")
		benchRep = flag.Int("simbench-reps", 3, "repetitions per -simbench configuration")
		baseWall = flag.Float64("simbench-baseline", 60.27,
			"recorded wall-seconds of the headline large-scale sweep before the hot-path optimisation (0 to omit the comparison)")
		nnbench = flag.Bool("nnbench", false, "profile the MLF-RL policy engine and write BENCH_nn.json")
		nnBase  = flag.Float64("nnbench-baseline", 9.2,
			"recorded wall-seconds of the mlf-rl Figure-4 sweep before NN batching (0 to omit the comparison)")
		scalebench  = flag.Bool("scalebench", false, "profile per-decision cost and peak memory at Philly scale and write BENCH_scale.json")
		scaleJobs   = flag.String("scalebench-jobs", "1000,10000,100000", "comma-separated job counts for -scalebench")
		scaleSrv    = flag.String("scalebench-servers", "55,550", "comma-separated server counts for -scalebench")
		scaleScheds = flag.String("scalebench-schedulers", "", "comma-separated scheduler subset for -scalebench (default fifo,srtf,mlf-h)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU pprof profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap pprof profile at exit to this file")

		faultbench = flag.Bool("faultbench", false, "sweep JCT degradation vs server MTTF and write BENCH_fault.json")
		faultJobs  = flag.Int("faultbench-jobs", 155, "job count for -faultbench runs")
		faultMTTFs = flag.String("faultbench-mttfs", "", "override the MTTF sweep: comma-separated seconds (0 = failure-free baseline)")
		snapEvery  = flag.Int("snapshot-every", 0, "-faultbench: snapshot each run every N ticks into <out>/snapshots (0 disables)")
		resumeRuns = flag.Bool("resume", false, "-faultbench: continue interrupted runs from <out>/snapshots")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	if *snapEvery < 0 {
		fatal(fmt.Errorf("-snapshot-every must be >= 0 (0 disables snapshotting), got %d", *snapEvery))
	}
	if (*snapEvery > 0 || *resumeRuns) && !*faultbench {
		fatal(fmt.Errorf("-snapshot-every and -resume only apply to -faultbench runs"))
	}
	if *simbench {
		if err := runSimBench(filepath.Join(*out, "BENCH_sim.json"), *seed, *benchJob, *benchRep, *baseWall); err != nil {
			fatal(err)
		}
		return
	}
	if *nnbench {
		if err := runNNBench(filepath.Join(*out, "BENCH_nn.json"), *nnBase); err != nil {
			fatal(err)
		}
		return
	}
	if *scalebench {
		jobCounts, err := parseInts(*scaleJobs)
		if err != nil {
			fatal(err)
		}
		serverCounts, err := parseInts(*scaleSrv)
		if err != nil {
			fatal(err)
		}
		schedulers := scaleBenchSchedulers
		if *scaleScheds != "" {
			schedulers = strings.Split(*scaleScheds, ",")
		}
		if err := runScaleBench(filepath.Join(*out, "BENCH_scale.json"), *seed, jobCounts, serverCounts, schedulers); err != nil {
			fatal(err)
		}
		return
	}
	if *faultbench {
		mttfs, err := parseMTTFs(*faultMTTFs)
		if err != nil {
			fatal(err)
		}
		cfg := faultBenchConfig{
			Path:          filepath.Join(*out, "BENCH_fault.json"),
			Seed:          *seed,
			Jobs:          *faultJobs,
			MTTFs:         mttfs,
			SnapshotEvery: *snapEvery,
			SnapshotDir:   filepath.Join(*out, "snapshots"),
			Resume:        *resumeRuns,
		}
		if err := runFaultBench(cfg); err != nil {
			fatal(err)
		}
		return
	}
	schedulers := mlfs.SchedulerNames()
	if *schedCS != "" {
		schedulers = strings.Split(*schedCS, ",")
	}
	realCounts := mlfs.PaperRealJobCounts()
	if *quick {
		realCounts = []int{40, 80, 155}
	}
	if *countsCS != "" {
		realCounts = nil
		for _, p := range strings.Split(*countsCS, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				fatal(fmt.Errorf("bad count %q", p))
			}
			realCounts = append(realCounts, v)
		}
	}
	simCounts := mlfs.PaperSimJobCounts(*scale)
	if *simMax > 0 && *simMax < len(simCounts) {
		simCounts = simCounts[:*simMax]
	}
	base := mlfs.Options{Seed: *seed, SchedOpts: mlfs.SchedulerOptions{Seed: *seed}, Preset: mlfs.PaperReal}
	simBase := base
	simBase.Preset = mlfs.PaperSim

	emit := func(fig *mlfs.Figure, started time.Time) {
		path := filepath.Join(*out, fig.ID+".tsv")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := fig.WriteTSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("%-10s -> %s (%.1fs)\n", fig.ID, path, time.Since(started).Seconds())
		if *ascii {
			fmt.Println(fig.RenderASCII())
		}
	}

	want := *figure
	ran := 0
	match := func(id string) bool { return want == "all" || strings.HasPrefix(id, want) }

	if match("fig4") || match("makespan") {
		start := time.Now()
		figs, results, err := mlfs.Figure4All(schedulers, realCounts, base)
		if err != nil {
			fatal(err)
		}
		for _, fig := range figs {
			emit(fig, start)
			ran++
		}
		// Makespan and the paper-shape report come from the same sweep.
		mk := &mlfs.Figure{ID: "makespan", Title: "Makespan", XLabel: "number of jobs", YLabel: "makespan (h)"}
		for _, name := range schedulers {
			s := mlfs.Series{Label: name}
			for i, jc := range realCounts {
				s.Points = append(s.Points, mlfs.Point{X: float64(jc), Y: results[name][i].MakespanSec / 3600})
			}
			mk.Series = append(mk.Series, s)
		}
		emit(mk, start)
		ran++
		if err := writeShapeReport(filepath.Join(*out, "shape.txt"), results); err != nil {
			fatal(err)
		}
		fmt.Printf("%-10s -> %s\n", "shape", filepath.Join(*out, "shape.txt"))
	}

	if match("fig5") {
		start := time.Now()
		figs, _, err := mlfs.Figure4All(schedulers, simCounts, simBase)
		if err != nil {
			fatal(err)
		}
		for _, fig := range figs {
			emit(fig, start)
			ran++
		}
	}

	type gen struct {
		id  string
		run func() (*mlfs.Figure, error)
	}
	for _, g := range []gen{
		{"fig6", func() (*mlfs.Figure, error) { return mlfs.Figure6(realCounts, base) }},
		{"fig7", func() (*mlfs.Figure, error) { return mlfs.Figure7(realCounts, base) }},
		{"fig8", func() (*mlfs.Figure, error) { return mlfs.Figure8(realCounts, base) }},
		{"fig9", func() (*mlfs.Figure, error) { return mlfs.Figure9(realCounts, base) }},
	} {
		if !match(g.id) {
			continue
		}
		start := time.Now()
		fig, err := g.run()
		if err != nil {
			fatal(err)
		}
		emit(fig, start)
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("no figure matches %q", want))
	}
}

// writeShapeReport checks the measured sweep against the paper's expected
// orderings and writes one line per expectation.
func writeShapeReport(path string, results map[string][]*mlfs.Result) error {
	// Only check expectations whose schedulers are in this sweep.
	var exps []mlfs.Expectation
	for _, e := range mlfs.PaperExpectations() {
		if _, ok := results[e.Better]; !ok {
			continue
		}
		if _, ok := results[e.Worse]; !ok {
			continue
		}
		exps = append(exps, e)
	}
	outcomes, err := mlfs.CheckExpectations(results, exps)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pass := 0
	for _, o := range outcomes {
		status := "FAIL"
		if o.Holds {
			status = "ok"
			pass++
		}
		fmt.Fprintf(f, "%-4s %-15s %-12s beats %-12s (%.4g vs %.4g)\n",
			status, o.Metric, o.Better, o.Worse, o.BetterValue, o.WorseValue)
	}
	fmt.Fprintf(f, "\n%d/%d expected orderings hold\n", pass, len(outcomes))
	return nil
}

// simBenchEntry is one measured configuration of the hot-path benchmark.
type simBenchEntry struct {
	Scheduler      string  `json:"scheduler"`
	Jobs           int     `json:"jobs"`
	Reps           int     `json:"reps"`
	WallSeconds    float64 `json:"wall_seconds"` // best-of-reps for one full run
	Ticks          int     `json:"ticks"`
	NsPerTick      float64 `json:"ns_per_tick"`
	AllocsPerTick  float64 `json:"allocs_per_tick"`
	JobsPerWallSec float64 `json:"jobs_per_wall_second"`
	AvgJCTMin      float64 `json:"avg_jct_min"` // result fingerprint
}

// simBenchHeadline is the BenchmarkFig5_LargeScale-equivalent workload
// (the avg-JCT sweep over the large-scale cluster at 1/1000 job counts),
// timed end to end and compared against the recorded pre-optimisation
// wall time on the same machine class.
type simBenchHeadline struct {
	Benchmark        string  `json:"benchmark"`
	WallSeconds      float64 `json:"wall_seconds"`
	BaselineWallSecs float64 `json:"baseline_wall_seconds,omitempty"`
	Speedup          float64 `json:"speedup_vs_baseline,omitempty"`
	MLFSAvgJCTMin    float64 `json:"mlfs_avg_jct_min"` // result fingerprint
}

// simBenchReport is the BENCH_sim.json schema.
type simBenchReport struct {
	GeneratedAt string            `json:"generated_at"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Seed        int64             `json:"seed"`
	Headline    *simBenchHeadline `json:"headline,omitempty"`
	Entries     []simBenchEntry   `json:"entries"`
}

// runSimBench measures complete simulation runs (trace generation
// excluded) for representative schedulers and writes the
// machine-readable report. Wall time is
// best-of-reps; allocations per tick are the total heap alloc count of a
// run divided by its scheduling rounds.
func runSimBench(path string, seed int64, jobs, reps int, baselineWall float64) error {
	if reps < 1 {
		reps = 1
	}
	report := simBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        seed,
	}

	// Headline: the same sweep BenchmarkFig5_LargeScale runs.
	hlSchedulers := []string{"mlfs", "mlf-rl", "mlf-h", "graphene", "tiresias", "gandiva", "tensorflow", "slaq"}
	hlBase := mlfs.Options{Seed: 1, SchedOpts: mlfs.SchedulerOptions{Seed: 1}, Preset: mlfs.PaperSim}
	hlStart := time.Now()
	fig, err := mlfs.Figure4(mlfs.FigAvgJCT, hlSchedulers, mlfs.PaperSimJobCounts(1000)[:3], hlBase)
	if err != nil {
		return err
	}
	hl := &simBenchHeadline{
		Benchmark:   "BenchmarkFig5_LargeScale",
		WallSeconds: time.Since(hlStart).Seconds(),
	}
	for _, s := range fig.Series {
		if s.Label == "mlfs" && len(s.Points) > 0 {
			hl.MLFSAvgJCTMin = s.Points[len(s.Points)-1].Y
		}
	}
	if baselineWall > 0 {
		hl.BaselineWallSecs = baselineWall
		hl.Speedup = baselineWall / hl.WallSeconds
	}
	report.Headline = hl
	fmt.Printf("simbench headline    %.2fs wall (baseline %.2fs, %.2fx)  mlfs avg JCT %.1f min\n",
		hl.WallSeconds, hl.BaselineWallSecs, hl.Speedup, hl.MLFSAvgJCTMin)
	base := mlfs.Options{Seed: seed, SchedOpts: mlfs.SchedulerOptions{Seed: seed}, Preset: mlfs.PaperReal}
	tr := mlfs.GenerateTrace(jobs, seed, mlfs.DefaultTraceDuration(jobs))
	for _, schedName := range []string{"mlfs", "mlf-h", "tiresias"} {
		opts := base
		opts.Scheduler = schedName
		opts.Trace = tr
		var best *mlfs.Result
		bestWall := 0.0
		var allocsPerTick float64
		for r := 0; r < reps; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			res, err := mlfs.Run(opts)
			wall := time.Since(start).Seconds()
			runtime.ReadMemStats(&m1)
			if err != nil {
				return err
			}
			if best == nil || wall < bestWall {
				best, bestWall = res, wall
				if res.Counters.SchedRounds > 0 {
					allocsPerTick = float64(m1.Mallocs-m0.Mallocs) / float64(res.Counters.SchedRounds)
				}
			}
		}
		entry := simBenchEntry{
			Scheduler:      schedName,
			Jobs:           jobs,
			Reps:           reps,
			WallSeconds:    bestWall,
			Ticks:          best.Counters.SchedRounds,
			AllocsPerTick:  allocsPerTick,
			JobsPerWallSec: float64(jobs) / bestWall,
			AvgJCTMin:      best.AvgJCTSec / 60,
		}
		if entry.Ticks > 0 {
			entry.NsPerTick = bestWall * 1e9 / float64(entry.Ticks)
		}
		report.Entries = append(report.Entries, entry)
		fmt.Printf("simbench %-9s %.2fs wall  %.0f ns/tick  %.1f allocs/tick  %.1f jobs/s\n",
			schedName, bestWall, entry.NsPerTick, entry.AllocsPerTick, entry.JobsPerWallSec)
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
	fmt.Printf("%-10s -> %s\n", "simbench", path)
	return nil
}

// parseMTTFs validates the -faultbench-mttfs override; "" keeps the
// default sweep.
func parseMTTFs(s string) ([]float64, error) {
	if s == "" {
		return faultBenchMTTFs, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -faultbench-mttfs value %q", part)
		}
		if v < 0 {
			return nil, fmt.Errorf("-faultbench-mttfs values must be >= 0 (0 = failure-free baseline), got %v", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInts parses a comma-separated list of positive ints (the
// -scalebench sweep overrides).
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad count %q: want a positive integer", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlfs-bench:", err)
	os.Exit(1)
}
