package sim

import (
	"errors"
	"math"
	"testing"

	"mlfs/internal/core"
	"mlfs/internal/job"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// TestRestoreRejectsBadTallies: a retired job has been consumed and
// retires exactly once, so Restore must refuse a tally whose SimIndex
// lies at or past the consumed prefix (but still inside the workload)
// and a tally repeated for one job — either would inflate Result.Jobs
// and skew every ratio of the resumed run.
func TestRestoreRejectsBadTallies(t *testing.T) {
	mk := func() *Simulator {
		t.Helper()
		// Arrivals spread over two days, so early jobs retire while later
		// ones are still unconsumed.
		tr := trace.Generate(trace.GenConfig{Jobs: 40, Seed: 5, DurationSec: 48 * 3600})
		s, err := New(Config{Cluster: testClusterCfg(), Source: trace.NewSliceSource(tr), Scheduler: core.NewMLFH()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// midRun steps a fresh simulator until some jobs have retired while
	// part of the workload is still unconsumed.
	midRun := func() *Simulator {
		s := mk()
		for len(s.tallies) == 0 {
			more, err := s.RunStep()
			if err != nil {
				t.Fatal(err)
			}
			if !more || s.pending == s.total {
				t.Fatal("setup: workload consumed before any job retired")
			}
		}
		return s
	}
	restore := func(s *Simulator) error {
		t.Helper()
		payload, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return mk().Restore(payload)
	}

	s := midRun()
	if err := restore(s); err != nil {
		t.Fatalf("control: unedited snapshot does not restore: %v", err)
	}

	for _, tc := range []struct {
		name string
		edit func(s *Simulator)
	}{
		{"unconsumed index", func(s *Simulator) {
			bad := s.tallies[0]
			bad.SimIndex = s.pending
			s.tallies = append(s.tallies, bad)
		}},
		{"repeated index", func(s *Simulator) {
			s.tallies = append(s.tallies, s.tallies[0])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := midRun()
			tc.edit(s)
			if err := restore(s); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("Restore = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestRestoreRejectsImpossibleCurveSeries: Predictor.Observe keeps
// iterations strictly increasing and the simulator feeds it clamped
// accuracies, so a snapshot whose learning-curve series breaks either
// rule is corrupt and Restore must say so.
func TestRestoreRejectsImpossibleCurveSeries(t *testing.T) {
	mk := func() *Simulator {
		t.Helper()
		tr := trace.Generate(trace.GenConfig{Jobs: 20, Seed: 9})
		s, err := New(Config{Cluster: testClusterCfg(), Source: trace.NewSliceSource(tr), Scheduler: core.NewMLFH()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// observed steps a fresh simulator until a live job has observed at
	// least three points of its curve, and returns that job's series.
	observed := func() (*Simulator, *job.Job) {
		s := mk()
		for {
			for _, j := range s.ActiveJobs() {
				if j.Predictor.NumObservations() >= 3 {
					return s, j
				}
			}
			if more, err := s.RunStep(); err != nil || !more {
				t.Fatalf("setup: no job observed three points (err %v)", err)
			}
		}
	}
	restore := func(s *Simulator) error {
		t.Helper()
		payload, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return mk().Restore(payload)
	}

	s, _ := observed()
	if err := restore(s); err != nil {
		t.Fatalf("control: unedited snapshot does not restore: %v", err)
	}

	for _, tc := range []struct {
		name string
		edit func(iters []int, accs []float64)
	}{
		{"repeated iteration", func(iters []int, _ []float64) { iters[2] = iters[1] }},
		{"decreasing iteration", func(iters []int, _ []float64) { iters[1], iters[2] = iters[2], iters[1] }},
		{"NaN accuracy", func(_ []int, accs []float64) { accs[1] = math.NaN() }},
		{"negative accuracy", func(_ []int, accs []float64) { accs[0] = -0.01 }},
		{"accuracy above 1", func(_ []int, accs []float64) { accs[2] = 1.01 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, j := observed()
			iters, accs := j.Predictor.Observations()
			iters, accs = append([]int(nil), iters...), append([]float64(nil), accs...)
			tc.edit(iters, accs)
			j.Predictor.SetObservations(iters, accs)
			if err := restore(s); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("Restore = %v, want ErrCorrupt", err)
			}
		})
	}
}
