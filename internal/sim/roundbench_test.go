package sim

import (
	"testing"

	"mlfs/internal/core"
)

// TestRoundScanBenchModesAgree pins the backlogged round-scan probe to
// its contract: the incremental and full-rescan probes of one
// configuration walk the same decision sequence (Placements checksum),
// see the same backlog, and report sane measurements.
func TestRoundScanBenchModesAgree(t *testing.T) {
	probe := func(fullRescan bool) RoundScan {
		t.Helper()
		s, err := New(Config{
			Cluster:    testClusterCfg(),
			Source:     smallSource(300, 99),
			Scheduler:  core.NewMLFH(),
			FullRescan: fullRescan,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := s.RoundScanBench(0.01, 3)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	inc, ora := probe(false), probe(true)
	if inc.Placements != ora.Placements || inc.Backlog != ora.Backlog {
		t.Fatalf("probe modes diverged: incremental %+v vs oracle %+v", inc, ora)
	}
	// The backlog is the whole workload minus jobs rejected at admission
	// (gangs larger than the test cluster).
	if inc.Backlog < 250 || inc.Backlog > 300 {
		t.Fatalf("backlog = %d, want ~the whole 300-job workload", inc.Backlog)
	}
	if want := int(0.01 * float64(inc.Backlog)); inc.DirtyJobs != want {
		t.Fatalf("dirty jobs = %d, want 1%% of the %d-job backlog (%d)", inc.DirtyJobs, inc.Backlog, want)
	}
	if inc.Rounds != 3 || ora.Rounds != 3 {
		t.Fatalf("measured rounds = %d/%d, want 3", inc.Rounds, ora.Rounds)
	}
	if inc.RoundSec <= 0 || ora.RoundSec <= 0 {
		t.Fatalf("non-positive round time: %v / %v", inc.RoundSec, ora.RoundSec)
	}
}

// TestRoundScanBenchRejectsUsedSimulator pins the fresh-simulator
// precondition: a simulator that has already run rounds is refused
// instead of producing polluted measurements.
func TestRoundScanBenchRejectsUsedSimulator(t *testing.T) {
	s, err := New(Config{
		Cluster:   testClusterCfg(),
		Source:    smallSource(20, 99),
		Scheduler: core.NewMLFH(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RoundScanBench(0.01, 1); err == nil {
		t.Fatal("RoundScanBench accepted a consumed simulator")
	}
}
