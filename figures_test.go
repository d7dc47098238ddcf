package mlfs

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tiny returns options for fast figure smoke tests.
func tiny() Options {
	return Options{Seed: 2, Servers: 4, GPUsPerServer: 4,
		SchedOpts: SchedulerOptions{Seed: 2, ImitationRounds: 10}}
}

var tinyCounts = []int{8, 16}

func TestFigure4SeriesShape(t *testing.T) {
	scheds := []string{"mlf-h", "gandiva"}
	fig, err := Figure4(FigAvgJCT, scheds, tinyCounts, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig4b" {
		t.Fatalf("ID = %s", fig.ID)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(tinyCounts) {
			t.Fatalf("%s: %d points", s.Label, len(s.Points))
		}
		for i, p := range s.Points {
			if p.X != float64(tinyCounts[i]) {
				t.Fatalf("%s: x = %v", s.Label, p.X)
			}
			if p.Y <= 0 {
				t.Fatalf("%s: non-positive JCT %v", s.Label, p.Y)
			}
		}
	}
}

func TestFigure4CDF(t *testing.T) {
	fig, err := Figure4(FigJCTCDF, []string{"mlf-h"}, tinyCounts, tiny())
	if err != nil {
		t.Fatal(err)
	}
	pts := fig.Series[0].Points
	prev := -1.0
	for _, p := range pts {
		if p.Y < prev || p.Y < 0 || p.Y > 1 {
			t.Fatalf("CDF not monotone in [0,1]: %v after %v", p.Y, prev)
		}
		prev = p.Y
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("CDF must reach 1, got %v", pts[len(pts)-1].Y)
	}
}

func TestFigure5IDAndPreset(t *testing.T) {
	base := tiny()
	base.Servers, base.GPUsPerServer = 0, 0
	base.Preset = PaperSim
	fig, err := Figure4(FigDeadlineRatio, []string{"gandiva"}, []int{10}, base)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig5c" {
		t.Fatalf("ID = %s, want fig5c", fig.ID)
	}
}

func TestFigure6Series(t *testing.T) {
	fig, err := Figure6(tinyCounts, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(fig.Series))
	}
	labels := map[string]bool{}
	for _, s := range fig.Series {
		labels[s.Label] = true
	}
	for _, want := range []string{"w/ urgency (urgent jobs)", "w/o urgency (urgent jobs)", "w/ deadline", "w/o deadline"} {
		if !labels[want] {
			t.Fatalf("missing series %q", want)
		}
	}
}

func TestFigure7And8And9Series(t *testing.T) {
	f7, err := Figure7(tinyCounts, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Series) != 4 {
		t.Fatalf("fig7 series = %d", len(f7.Series))
	}
	f8, err := Figure8(tinyCounts, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Series) != 8 {
		t.Fatalf("fig8 series = %d", len(f8.Series))
	}
	f9, err := Figure9(tinyCounts, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Series) != 4 {
		t.Fatalf("fig9 series = %d", len(f9.Series))
	}
}

func TestMakespansFigure(t *testing.T) {
	fig, err := Makespans([]string{"mlf-h"}, tinyCounts, tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig.Series[0].Points {
		if p.Y <= 0 {
			t.Fatalf("non-positive makespan %v", p.Y)
		}
	}
}

func TestWriteTSV(t *testing.T) {
	fig := &Figure{ID: "x", Title: "T", XLabel: "a", YLabel: "b",
		Series: []Series{{Label: "s1", Points: []Point{{1, 2}, {3, 4}}}}}
	var sb strings.Builder
	if err := fig.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# x: T", "## s1", "1\t2", "3\t4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("TSV missing %q:\n%s", want, out)
		}
	}
}

func TestImprovement(t *testing.T) {
	if Improvement(150, 100) != 0.5 || Improvement(1, 0) != 0 {
		t.Fatal("Improvement formula wrong")
	}
}

func TestPaperJobCounts(t *testing.T) {
	real := PaperRealJobCounts()
	if len(real) != 5 || real[0] != 155 || real[4] != 1860 {
		t.Fatalf("real counts = %v", real)
	}
	sim := PaperSimJobCounts(1)
	if sim[1] != 117325 {
		t.Fatalf("sim counts = %v", sim)
	}
	scaled := PaperSimJobCounts(1000)
	if scaled[1] != 117 {
		t.Fatalf("scaled = %v", scaled)
	}
	if PaperSimJobCounts(0)[0] != 58663 {
		t.Fatal("scale<1 must clamp to 1")
	}
}

func TestSweep(t *testing.T) {
	points, err := Sweep("alpha", []float64{0.1, 0.9}, Options{
		Jobs: 12, Seed: 4, Servers: 4, GPUsPerServer: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Value != 0.1 || points[1].Value != 0.9 {
		t.Fatalf("points = %+v", points)
	}
	for _, p := range points {
		if p.Result.Jobs != 12 {
			t.Fatal("sweep lost jobs")
		}
	}
	if _, err := Sweep("nope", []float64{1}, Options{Jobs: 5}); err == nil {
		t.Fatal("unknown parameter must error")
	}
	if _, err := Sweep("alpha", []float64{1}, Options{}); err == nil {
		t.Fatal("missing workload must error")
	}
	for _, param := range []string{"gamma", "gamma_d", "gamma_r", "gamma_w", "ps", "hr", "hs"} {
		if _, err := Sweep(param, []float64{0.5}, Options{Jobs: 5, Servers: 2, GPUsPerServer: 2}); err != nil {
			t.Fatalf("sweep %s: %v", param, err)
		}
	}
}

// TestPublishedFiguresPinned regenerates the Figure-4 sweep at 155 jobs
// with mlfs-bench's options and requires every 155-job row of the
// committed results/fig4b–g.tsv and results/makespan.tsv to match byte
// for byte, so a change that moves a published number must regenerate
// results/ with it. fig4a (a CDF at the middle job count) and fig4h
// (wall-clock overhead) have no comparable 155-job row. The committed
// files hold amd64 bits.
func TestPublishedFiguresPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("nine full simulations")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("published figures hold amd64 floating point")
	}
	schedulers := SchedulerNames()
	counts := []int{155}
	figs, results, err := Figure4All(schedulers, counts, Options{Seed: 1, SchedOpts: SchedulerOptions{Seed: 1}, Preset: PaperReal})
	if err != nil {
		t.Fatal(err)
	}
	figs = append(figs, MakespanFigure(schedulers, counts, results))
	// rows keeps the series headers and the 155-job rows of a TSV.
	rows := func(tsv []byte) string {
		var b strings.Builder
		for _, line := range strings.SplitAfter(string(tsv), "\n") {
			if strings.HasPrefix(line, "## ") || strings.HasPrefix(line, "155\t") {
				b.WriteString(line)
			}
		}
		return b.String()
	}
	checked := 0
	for _, fig := range figs {
		if fig.ID == "fig4a" || fig.ID == "fig4h" {
			continue
		}
		committed, err := os.ReadFile(filepath.Join("results", fig.ID+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := fig.WriteTSV(&got); err != nil {
			t.Fatal(err)
		}
		if want, have := rows(committed), rows(got.Bytes()); want != have {
			t.Errorf("results/%s.tsv: committed 155-job rows differ from this build:\ncommitted:\n%sregenerated:\n%s", fig.ID, want, have)
		}
		checked++
	}
	if checked != 7 {
		t.Fatalf("checked %d figures, want fig4b–g and makespan", checked)
	}
}
