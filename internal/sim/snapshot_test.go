package sim

import (
	"errors"
	"testing"

	"mlfs/internal/core"
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
		fresh := mk()
		defer fresh.Close()
		return fresh.Restore(payload)
	}

	s := midRun()
	if err := restore(s); err != nil {
		t.Fatalf("control: unedited snapshot does not restore: %v", err)
	}
	s.Close()

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
			defer s.Close()
			tc.edit(s)
			if err := restore(s); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("Restore = %v, want ErrCorrupt", err)
			}
		})
	}
}
