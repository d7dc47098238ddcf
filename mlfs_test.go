package mlfs

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

func TestNewSchedulerRegistry(t *testing.T) {
	for _, name := range SchedulerNames() {
		s, err := NewScheduler(name, SchedulerOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("constructed %q, asked for %q", s.Name(), name)
		}
	}
	if _, err := NewScheduler("nope", SchedulerOptions{}); err == nil {
		t.Fatal("unknown scheduler must error")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("missing scheduler must error")
	}
	if _, err := Run(Options{Scheduler: "mlf-h"}); err == nil {
		t.Fatal("missing workload must error")
	}
}

func TestRunSmall(t *testing.T) {
	res, err := Run(Options{
		Scheduler: "mlf-h",
		Jobs:      20,
		Seed:      5,
		Servers:   4, GPUsPerServer: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 20 || res.AvgJCTSec <= 0 {
		t.Fatalf("bad result: %v", res)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	opts := Options{Scheduler: "mlfs", Jobs: 15, Seed: 9, Servers: 4, GPUsPerServer: 4}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgJCTSec != b.AvgJCTSec || a.AvgAccuracy != b.AvgAccuracy {
		t.Fatal("same options must reproduce results exactly")
	}
}

func TestTraceCSVRoundTripViaFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	tr := GenerateTrace(30, 7, 3600)
	if err := SaveTraceCSV(tr, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTraceCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 30 {
		t.Fatalf("round trip lost records: %d", len(back.Records))
	}
	res, err := Run(Options{Scheduler: "tiresias", Trace: back, Servers: 4, GPUsPerServer: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 30 {
		t.Fatal("trace-driven run job count wrong")
	}
	if _, err := LoadTraceCSV(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestCompareShape(t *testing.T) {
	out, err := Compare([]string{"mlf-h", "gandiva"}, []int{10, 20}, Options{
		Seed: 3, Servers: 4, GPUsPerServer: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mlf-h", "gandiva"} {
		if len(out[name]) != 2 {
			t.Fatalf("%s: %d results", name, len(out[name]))
		}
		if out[name][0].Jobs != 10 || out[name][1].Jobs != 20 {
			t.Fatalf("%s: wrong job counts", name)
		}
	}
}

func TestSchedulerOptionsOverrides(t *testing.T) {
	h := SchedulerOptions{Alpha: 0.7, Gamma: 0.5, PSFraction: 0.2}.mlfh()
	if h.Params.Alpha != 0.7 || h.Params.Gamma != 0.5 || h.PS != 0.2 {
		t.Fatalf("overrides not applied: %+v", h)
	}
	d := SchedulerOptions{}.mlfh()
	if d.Params.Alpha != 0.3 || d.PS != 0.1 {
		t.Fatalf("defaults wrong: %+v", d)
	}
}

// TestAblationSwitchesReachMLFSFamily requires each ablation switch of
// SchedulerOptions that configures MLF-H (p_s, the bandwidth term,
// migration) to change the Result of every scheduler built on MLF-H,
// and DisableMigration to leave no migration at all.
func TestAblationSwitchesReachMLFSFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve full simulations")
	}
	fingerprint := func(name string, o SchedulerOptions) (string, int) {
		o.Seed = 11
		res, err := Run(Options{Scheduler: name, Jobs: 60, Seed: 11, SchedOpts: o})
		if err != nil {
			t.Fatal(err)
		}
		res.Counters.ZeroVolatile()
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), res.Counters.Migrations
	}
	switches := []struct {
		name string
		opts SchedulerOptions
	}{
		{"ps", SchedulerOptions{PSFraction: 0.5}},
		{"no-bandwidth", SchedulerOptions{DisableBandwidth: true}},
		{"no-migration", SchedulerOptions{DisableMigration: true}},
	}
	for _, name := range []string{"mlfs", "mlf-rl", "mlf-h"} {
		def, defMig := fingerprint(name, SchedulerOptions{})
		if defMig == 0 {
			t.Fatalf("%s: the default run migrates nothing, so no switch can show", name)
		}
		for _, sw := range switches {
			got, mig := fingerprint(name, sw.opts)
			if got == def {
				t.Errorf("%s/%s: Result identical to the default run", name, sw.name)
			}
			if sw.opts.DisableMigration && mig != 0 {
				t.Errorf("%s/%s: %d migrations, want 0", name, sw.name, mig)
			}
		}
	}
}

// The MLFS composite must actually exercise MLF-C: under sustained
// overload it stops jobs at their accuracy targets, so its average JCT
// comes out below plain MLF-RL on the same workload (Fig 9's mechanism).
func TestCompositeLoadControlEffect(t *testing.T) {
	tr := GenerateTrace(60, 21, 1800) // 60 jobs in 30 min on 16 GPUs: overload
	run := func(name string) *Result {
		res, err := Run(Options{Scheduler: name, Trace: tr, Servers: 4, GPUsPerServer: 4,
			SchedOpts: SchedulerOptions{Seed: 1, ImitationRounds: 20}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	withC := run("mlfs")
	withoutC := run("mlf-rl")
	if withC.AvgJCTSec >= withoutC.AvgJCTSec {
		t.Fatalf("MLF-C must cut JCT under overload: %v vs %v",
			withC.AvgJCTSec, withoutC.AvgJCTSec)
	}
}

// Compare parallelises runs across CPUs; its results must equal the
// sequential Run calls exactly (per-run determinism).
func TestCompareMatchesSequentialRuns(t *testing.T) {
	base := Options{Seed: 13, Servers: 4, GPUsPerServer: 4,
		SchedOpts: SchedulerOptions{Seed: 13}}
	jobCounts := []int{10, 20}
	schedulers := []string{"mlf-h", "tiresias"}
	parallel, err := Compare(schedulers, jobCounts, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range schedulers {
		for i, jc := range jobCounts {
			opts := base
			opts.Scheduler = name
			opts.Jobs = jc
			opts.Trace = GenerateTrace(jc, base.Seed, DurationForCluster(jc, 16))
			seq, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			got := parallel[name][i]
			if got.AvgJCTSec != seq.AvgJCTSec || got.Counters.BandwidthMB != seq.Counters.BandwidthMB {
				t.Fatalf("%s@%d: parallel %v/%v != sequential %v/%v",
					name, jc, got.AvgJCTSec, got.Counters.BandwidthMB,
					seq.AvgJCTSec, seq.Counters.BandwidthMB)
			}
		}
	}
}

// TestCompareRejectsNonPositiveCounts: a job count below 1 is an error,
// not a panic in trace generation (negative) or a sweep of empty runs
// that reads as a figure of zeros (0).
func TestCompareRejectsNonPositiveCounts(t *testing.T) {
	for _, counts := range [][]int{{-3}, {0}, {8, 0}} {
		if res, err := Compare([]string{"fifo"}, counts, tiny()); err == nil {
			t.Errorf("Compare(counts %v) = %v, want an error", counts, res)
		}
	}
	if _, err := Figure9([]int{-3}, tiny()); err == nil {
		t.Error("Figure9 at -3 jobs must fail")
	}
}
