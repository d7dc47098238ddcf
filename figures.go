package mlfs

import (
	"fmt"
	"io"
	"math"

	"mlfs/internal/viz"
)

// Improvement returns (y−z)/z, the paper's improvement formula (§4.1).
func Improvement(y, z float64) float64 {
	if z == 0 {
		return 0
	}
	return (y - z) / z
}

// Point is one (x, y) sample of a figure series.
type Point struct{ X, Y float64 }

// Series is one labelled line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is the data behind one of the paper's evaluation figures.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// WriteTSV renders the figure as tab-separated values: one block per
// series, ready for plotting.
func (f *Figure) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s (%s vs %s)\n", f.ID, f.Title, f.YLabel, f.XLabel); err != nil {
		return err
	}
	for _, s := range f.Series {
		if _, err := fmt.Fprintf(w, "## %s\n", s.Label); err != nil {
			return err
		}
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%g\t%g\n", p.X, p.Y); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderASCII draws the figure as an ASCII line chart for terminal
// inspection.
func (f *Figure) RenderASCII() string {
	series := make([]viz.Series, len(f.Series))
	logX := f.ID == "fig4a" || f.ID == "fig5a"
	for i, s := range f.Series {
		vs := viz.Series{Label: s.Label}
		for _, p := range s.Points {
			vs.X = append(vs.X, p.X)
			vs.Y = append(vs.Y, p.Y)
		}
		series[i] = vs
	}
	return viz.Render(series, viz.Options{
		Title:  fmt.Sprintf("%s: %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: f.YLabel,
		LogX:   logX,
	})
}

// Fig4Metric selects the sub-figure of Figure 4/5.
type Fig4Metric byte

// Sub-figures of Figures 4 and 5 (§4.2.1).
const (
	FigJCTCDF        Fig4Metric = 'a'
	FigAvgJCT        Fig4Metric = 'b'
	FigDeadlineRatio Fig4Metric = 'c'
	FigWaitTime      Fig4Metric = 'd'
	FigAccuracy      Fig4Metric = 'e'
	FigAccuracyRatio Fig4Metric = 'f'
	FigBandwidth     Fig4Metric = 'g'
	FigOverhead      Fig4Metric = 'h'
)

func (m Fig4Metric) label() (title, ylabel string) {
	switch m {
	case FigJCTCDF:
		return "CDF of jobs vs JCT", "CDF of jobs"
	case FigAvgJCT:
		return "Average JCT", "average JCT (min)"
	case FigDeadlineRatio:
		return "Job deadline guarantee ratio", "deadline guarantee ratio"
	case FigWaitTime:
		return "Average job waiting time", "average waiting time (s)"
	case FigAccuracy:
		return "Average accuracy", "average accuracy"
	case FigAccuracyRatio:
		return "Accuracy guarantee ratio", "accuracy guarantee ratio"
	case FigBandwidth:
		return "Bandwidth cost", "bandwidth cost (GB)"
	case FigOverhead:
		return "Scheduler overhead", "time overhead (ms)"
	default:
		return "unknown", "unknown"
	}
}

func (m Fig4Metric) extract(r *Result) float64 {
	switch m {
	case FigAvgJCT:
		return r.AvgJCTSec / 60
	case FigDeadlineRatio:
		return r.DeadlineRatio
	case FigWaitTime:
		return r.AvgWaitSec
	case FigAccuracy:
		return r.AvgAccuracy
	case FigAccuracyRatio:
		return r.AccuracyRatio
	case FigBandwidth:
		return r.Counters.BandwidthMB / 1024
	case FigOverhead:
		return r.SchedOverheadMS()
	default:
		return math.NaN()
	}
}

// PaperRealJobCounts are the x values of Figure 4 (§4.1: 620x with
// x = 1/4, 1/2, 1, 2, 3).
func PaperRealJobCounts() []int { return []int{155, 310, 620, 1240, 1860} }

// PaperSimJobCounts are the x values of Figure 5 (117325x with x = 1/2,
// 1..4), scaled by 1/scale so CI-sized runs keep the same shape. scale=1
// reproduces the paper's counts.
func PaperSimJobCounts(scale int) []int {
	if scale < 1 {
		scale = 1
	}
	base := []int{58663, 117325, 234650, 351975, 469300}
	out := make([]int, len(base))
	for i, b := range base {
		out[i] = b / scale
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// AllFig4Metrics lists the eight sub-figures of Figures 4/5 in order.
func AllFig4Metrics() []Fig4Metric {
	return []Fig4Metric{FigJCTCDF, FigAvgJCT, FigDeadlineRatio, FigWaitTime,
		FigAccuracy, FigAccuracyRatio, FigBandwidth, FigOverhead}
}

// figureFromResults derives one sub-figure from an existing Compare sweep.
func figureFromResults(metric Fig4Metric, schedulers []string, jobCounts []int,
	results map[string][]*Result, sim bool) *Figure {
	title, ylabel := metric.label()
	id := "fig4" + string(metric)
	if sim {
		id = "fig5" + string(metric)
	}
	fig := &Figure{ID: id, Title: title, XLabel: "number of jobs", YLabel: ylabel}
	if metric == FigJCTCDF {
		// CDF at the middle job count (620 in the paper), log-spaced grid.
		fig.XLabel = "job completion time (min)"
		mid := len(jobCounts) / 2
		var grid []float64
		for x := 0.1; x <= 10000; x *= math.Sqrt(10) {
			grid = append(grid, x)
		}
		for _, name := range schedulers {
			r := results[name][mid]
			s := Series{Label: name}
			for _, x := range grid {
				s.Points = append(s.Points, Point{X: x, Y: r.FractionUnder(x * 60)})
			}
			fig.Series = append(fig.Series, s)
		}
		return fig
	}
	for _, name := range schedulers {
		s := Series{Label: name}
		for i, jc := range jobCounts {
			s.Points = append(s.Points, Point{X: float64(jc), Y: metric.extract(results[name][i])})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Figure4 regenerates one sub-figure of Figure 4 (real-cluster scale) —
// or of Figure 5 when base.Preset is PaperSim. For FigJCTCDF the x axis
// is JCT minutes (log-spaced grid, as in the paper) at the middle job
// count (620 in the paper); for all others x is the job count.
func Figure4(metric Fig4Metric, schedulers []string, jobCounts []int, base Options) (*Figure, error) {
	results, err := Compare(schedulers, jobCounts, base)
	if err != nil {
		return nil, err
	}
	return figureFromResults(metric, schedulers, jobCounts, results, base.Preset == PaperSim), nil
}

// Figure4All runs the comparison sweep once and derives every sub-figure
// of Figure 4 (or Figure 5 under the PaperSim preset) from it, plus the
// raw results for further analysis (shape checks, makespans).
func Figure4All(schedulers []string, jobCounts []int, base Options) ([]*Figure, map[string][]*Result, error) {
	results, err := Compare(schedulers, jobCounts, base)
	if err != nil {
		return nil, nil, err
	}
	var figs []*Figure
	for _, m := range AllFig4Metrics() {
		figs = append(figs, figureFromResults(m, schedulers, jobCounts, results, base.Preset == PaperSim))
	}
	return figs, results, nil
}

// runMLFHVariant runs MLF-H with a tweak applied to its options.
func runMLFHVariant(base Options, jobs int, mutate func(*SchedulerOptions)) (*Result, error) {
	opts := base
	opts.Jobs = jobs
	opts.Scheduler = "mlf-h"
	mutate(&opts.SchedOpts)
	return Run(opts)
}

// ablation sweeps MLF-H with and without one switch over jobCounts and
// returns two aligned result slices (with, without).
func ablation(base Options, jobCounts []int, disable func(*SchedulerOptions)) (with, without []*Result, err error) {
	for _, jc := range jobCounts {
		w, err := runMLFHVariant(base, jc, func(*SchedulerOptions) {})
		if err != nil {
			return nil, nil, err
		}
		wo, err := runMLFHVariant(base, jc, disable)
		if err != nil {
			return nil, nil, err
		}
		with = append(with, w)
		without = append(without, wo)
	}
	return with, without, nil
}

func seriesOf(label string, jobCounts []int, results []*Result, f func(*Result) float64) Series {
	s := Series{Label: label}
	for i, jc := range jobCounts {
		s.Points = append(s.Points, Point{X: float64(jc), Y: f(results[i])})
	}
	return s
}

// Figure6 reproduces the urgency and deadline consideration ablation
// (§4.2.2): urgent-job deadline guarantee ratio with/without the urgency
// coefficient in Eq. 2, and overall deadline guarantee ratio with/without
// the deadline term in Eq. 4.
func Figure6(jobCounts []int, base Options) (*Figure, error) {
	fig := &Figure{ID: "fig6", Title: "Urgency and deadline consideration",
		XLabel: "number of jobs", YLabel: "guarantee ratio"}

	withU, withoutU, err := ablation(base, jobCounts, func(o *SchedulerOptions) { o.DisableUrgency = true })
	if err != nil {
		return nil, err
	}
	urgent := func(r *Result) float64 { return r.UrgentDeadlineRatio }
	fig.Series = append(fig.Series,
		seriesOf("w/ urgency (urgent jobs)", jobCounts, withU, urgent),
		seriesOf("w/o urgency (urgent jobs)", jobCounts, withoutU, urgent))

	withD, withoutD, err := ablation(base, jobCounts, func(o *SchedulerOptions) { o.DisableDeadline = true })
	if err != nil {
		return nil, err
	}
	ddl := func(r *Result) float64 { return r.DeadlineRatio }
	fig.Series = append(fig.Series,
		seriesOf("w/ deadline", jobCounts, withD, ddl),
		seriesOf("w/o deadline", jobCounts, withoutD, ddl))
	return fig, nil
}

// Figure7 reproduces the bandwidth-consideration ablation (§4.2.2):
// average JCT and bandwidth cost with/without the communication term in
// placement and migration.
func Figure7(jobCounts []int, base Options) (*Figure, error) {
	fig := &Figure{ID: "fig7", Title: "Bandwidth consideration",
		XLabel: "number of jobs", YLabel: "bandwidth (GB) / JCT (min)"}
	with, without, err := ablation(base, jobCounts, func(o *SchedulerOptions) { o.DisableBandwidth = true })
	if err != nil {
		return nil, err
	}
	bw := func(r *Result) float64 { return r.Counters.BandwidthMB / 1024 }
	jct := func(r *Result) float64 { return r.AvgJCTSec / 60 }
	fig.Series = append(fig.Series,
		seriesOf("w/ bandwidth (bw GB)", jobCounts, with, bw),
		seriesOf("w/o bandwidth (bw GB)", jobCounts, without, bw),
		seriesOf("w/ bandwidth (JCT min)", jobCounts, with, jct),
		seriesOf("w/o bandwidth (JCT min)", jobCounts, without, jct))
	return fig, nil
}

// Figure8 reproduces the task-migration ablation (§4.2.2): overload
// occurrences and bandwidth (8a), average accuracy and JCT (8b),
// with/without MLF-H's migration component.
func Figure8(jobCounts []int, base Options) (*Figure, error) {
	fig := &Figure{ID: "fig8", Title: "Effectiveness of task migration",
		XLabel: "number of jobs", YLabel: "mixed (see series labels)"}
	with, without, err := ablation(base, jobCounts, func(o *SchedulerOptions) { o.DisableMigration = true })
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series,
		seriesOf("w/ migration (overloads)", jobCounts, with, func(r *Result) float64 { return float64(r.Counters.OverloadOccurrences) }),
		seriesOf("w/o migration (overloads)", jobCounts, without, func(r *Result) float64 { return float64(r.Counters.OverloadOccurrences) }),
		seriesOf("w/ migration (bw GB)", jobCounts, with, func(r *Result) float64 { return r.Counters.BandwidthMB / 1024 }),
		seriesOf("w/o migration (bw GB)", jobCounts, without, func(r *Result) float64 { return r.Counters.BandwidthMB / 1024 }),
		seriesOf("w/ migration (accuracy)", jobCounts, with, func(r *Result) float64 { return r.AvgAccuracy }),
		seriesOf("w/o migration (accuracy)", jobCounts, without, func(r *Result) float64 { return r.AvgAccuracy }),
		seriesOf("w/ migration (JCT min)", jobCounts, with, func(r *Result) float64 { return r.AvgJCTSec / 60 }),
		seriesOf("w/o migration (JCT min)", jobCounts, without, func(r *Result) float64 { return r.AvgJCTSec / 60 }))
	return fig, nil
}

// Figure9 reproduces the MLF-C ablation (§4.2.2): accuracy guarantee
// ratio and average JCT with and without the load controller. MLFS
// without MLF-C is exactly MLF-RL (§3).
func Figure9(jobCounts []int, base Options) (*Figure, error) {
	fig := &Figure{ID: "fig9", Title: "System load reduction (MLF-C)",
		XLabel: "number of jobs", YLabel: "mixed (see series labels)"}
	results, err := Compare([]string{"mlfs", "mlf-rl"}, jobCounts, base)
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series,
		seriesOf("w/ MLF-C (accuracy ratio)", jobCounts, results["mlfs"], func(r *Result) float64 { return r.AccuracyRatio }),
		seriesOf("w/o MLF-C (accuracy ratio)", jobCounts, results["mlf-rl"], func(r *Result) float64 { return r.AccuracyRatio }),
		seriesOf("w/ MLF-C (JCT min)", jobCounts, results["mlfs"], func(r *Result) float64 { return r.AvgJCTSec / 60 }),
		seriesOf("w/o MLF-C (JCT min)", jobCounts, results["mlf-rl"], func(r *Result) float64 { return r.AvgJCTSec / 60 }))
	return fig, nil
}

// Makespans reports the in-text makespan comparison: makespan hours per
// scheduler per job count.
func Makespans(schedulers []string, jobCounts []int, base Options) (*Figure, error) {
	results, err := Compare(schedulers, jobCounts, base)
	if err != nil {
		return nil, err
	}
	return MakespanFigure(schedulers, jobCounts, results), nil
}

// MakespanFigure derives the makespan comparison from an existing
// Compare sweep, such as the results Figure4All returns.
func MakespanFigure(schedulers []string, jobCounts []int, results map[string][]*Result) *Figure {
	fig := &Figure{ID: "makespan", Title: "Makespan", XLabel: "number of jobs", YLabel: "makespan (h)"}
	for _, name := range schedulers {
		fig.Series = append(fig.Series,
			seriesOf(name, jobCounts, results[name], func(r *Result) float64 { return r.MakespanSec / 3600 }))
	}
	return fig
}

// FaultFigure reproduces the fault-injection sweep: the five schedulers
// compared under failures (MLFS, its heuristic core, and the
// time-quantum, packing and fair-share baselines) at one job count, once
// without failures and once per server MTTF of 24 h, 6 h and 2 h (MTTR
// 600 s, failure seed = base.Seed, so every scheduler in a column faces
// the identical failure trace). X is server failures per day (0 = no
// failures); there is one series per (metric, scheduler). mlfs-bench
// runs it at 155 jobs.
func FaultFigure(jobs int, base Options) (*Figure, error) {
	schedulers := []string{"mlfs", "mlf-h", "tiresias", "gandiva", "tensorflow"}
	mttfs := []float64{0, 86400, 21600, 7200}
	fig := &Figure{ID: "fault", Title: "Scheduling under server failures",
		XLabel: "server failures per day", YLabel: "mixed (see series labels)"}
	runs := make([]map[string][]*Result, len(mttfs))
	for i, mttf := range mttfs {
		opts := base
		if mttf > 0 {
			opts.Failures = FailureConfig{MTTFSec: mttf, MTTRSec: 600, Seed: base.Seed}
		}
		var err error
		if runs[i], err = Compare(schedulers, []int{jobs}, opts); err != nil {
			return nil, err
		}
	}
	for _, m := range []struct {
		label string
		f     func(*Result) float64
	}{
		{"avg JCT min", func(r *Result) float64 { return r.AvgJCTSec / 60 }},
		{"deadline ratio", func(r *Result) float64 { return r.DeadlineRatio }},
		{"jobs killed", func(r *Result) float64 { return float64(r.Counters.JobsKilled) }},
		{"job restarts", func(r *Result) float64 { return float64(r.Counters.JobRestarts) }},
		{"work lost iters", func(r *Result) float64 { return r.Counters.WorkLostIters }},
	} {
		for _, name := range schedulers {
			s := Series{Label: fmt.Sprintf("%s (%s)", name, m.label)}
			for i, mttf := range mttfs {
				perDay := 0.0
				if mttf > 0 {
					perDay = 86400 / mttf
				}
				s.Points = append(s.Points, Point{X: perDay, Y: m.f(runs[i][name][0])})
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}
