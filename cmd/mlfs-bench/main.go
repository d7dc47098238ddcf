// Command mlfs-bench regenerates every figure of the paper's evaluation
// (Figs. 4–9 plus the in-text makespan comparison) and the fault-injection
// sweep, writes one TSV per figure into -out, and checks the measured
// results against the paper's expected orderings (shape.txt).
//
// Examples:
//
//	mlfs-bench -out results/                   # everything, Figure-4 scale
//	mlfs-bench -out results/ -figure fig4      # just the Figure-4 family
//	mlfs-bench -out results/ -figure fault     # MTTF sweep -> fault.tsv
//	mlfs-bench -out results/ -scale 100        # Figure 5 at 1/100 job counts
//	mlfs-bench -out results/ -quick -ascii     # fast pass with ASCII charts
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mlfs"
)

func main() {
	var (
		out      = flag.String("out", "results", "output directory for TSV files")
		figure   = flag.String("figure", "all", "fig4, fig5, fig6..fig9, makespan, fault, or all")
		scale    = flag.Int("scale", 100, "divisor for Figure 5 job counts (1 = paper scale)")
		seed     = flag.Int64("seed", 1, "workload and policy seed")
		quick    = flag.Bool("quick", false, "use reduced job counts everywhere")
		schedCS  = flag.String("schedulers", "", "comma-separated scheduler subset (default: all)")
		ascii    = flag.Bool("ascii", false, "also print each figure as an ASCII chart")
		countsCS = flag.String("counts", "", "override Figure 4/6-9 job counts (comma-separated)")
		simMax   = flag.Int("sim-counts", 3, "how many Figure 5 job counts to run (1-5)")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	schedulers := mlfs.SchedulerNames()
	if *schedCS != "" {
		schedulers = strings.Split(*schedCS, ",")
	}
	realCounts, err := jobCounts(*countsCS, *quick)
	if err != nil {
		fatal(err)
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
		{"fault", func() (*mlfs.Figure, error) { return mlfs.FaultFigure(155, base) }},
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

// jobCounts resolves the Figure 4/6-9 job counts: -counts when given,
// else the reduced -quick sweep, else the paper's.
func jobCounts(countsCS string, quick bool) ([]int, error) {
	switch {
	case countsCS != "":
		return parseInts(countsCS)
	case quick:
		return []int{40, 80, 155}, nil
	}
	return mlfs.PaperRealJobCounts(), nil
}

// parseInts parses a comma-separated list of positive ints.
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
