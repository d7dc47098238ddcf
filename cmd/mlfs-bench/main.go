// Command mlfs-bench regenerates every figure of the paper's evaluation
// (Figs. 4–9 plus the in-text makespan comparison), writes one TSV per
// figure into -out, and checks the measured results against the paper's
// expected orderings (shape.txt).
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
//	mlfs-bench -out results/ -faultbench       # MTTF sweep -> BENCH_fault.json
package main

import (
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
		out         = flag.String("out", "results", "output directory for TSV files")
		figure      = flag.String("figure", "all", "fig4, fig5, fig6..fig9, makespan, or all")
		scale       = flag.Int("scale", 100, "divisor for Figure 5 job counts (1 = paper scale)")
		seed        = flag.Int64("seed", 1, "workload and policy seed")
		quick       = flag.Bool("quick", false, "use reduced job counts everywhere")
		schedCS     = flag.String("schedulers", "", "comma-separated scheduler subset (default: all)")
		ascii       = flag.Bool("ascii", false, "also print each figure as an ASCII chart")
		countsCS    = flag.String("counts", "", "override Figure 4/6-9 job counts (comma-separated)")
		simMax      = flag.Int("sim-counts", 3, "how many Figure 5 job counts to run (1-5)")
		scalebench  = flag.Bool("scalebench", false, "profile per-decision cost and peak memory at Philly scale and write BENCH_scale.json")
		scaleJobs   = flag.String("scalebench-jobs", "1000,10000,100000", "comma-separated job counts for -scalebench")
		scaleSrv    = flag.String("scalebench-servers", "55,550", "comma-separated server counts for -scalebench")
		scaleScheds = flag.String("scalebench-schedulers", "", "comma-separated scheduler subset for -scalebench (default fifo,srtf,mlf-h)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU pprof profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap pprof profile at exit to this file")

		faultbench = flag.Bool("faultbench", false, "sweep JCT degradation vs server MTTF and write BENCH_fault.json")
		faultJobs  = flag.Int("faultbench-jobs", 155, "job count for -faultbench runs")
		faultMTTFs = flag.String("faultbench-mttfs", "", "override the MTTF sweep: comma-separated seconds (0 = failure-free baseline)")
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
		if err := runFaultBench(filepath.Join(*out, "BENCH_fault.json"), *seed, *faultJobs, mttfs); err != nil {
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
		emit(mlfs.MakespanFigure(schedulers, realCounts, results), start)
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
