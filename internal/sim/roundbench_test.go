package sim

import (
	"testing"

	"mlfs/internal/core"
)

// TestRoundScanBenchContract pins the backlogged round-scan probe to
// its contract: it admits the whole workload as the backlog, re-marks
// the requested share of it dirty, measures the requested rounds and
// reports sane times.
func TestRoundScanBenchContract(t *testing.T) {
	s, err := New(Config{
		Cluster:   testClusterCfg(),
		Source:    smallSource(300, 99),
		Scheduler: core.NewMLFH(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.RoundScanBench(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The backlog is the whole workload minus jobs rejected at admission
	// (gangs larger than the test cluster).
	if rs.Backlog < 250 || rs.Backlog > 300 {
		t.Fatalf("backlog = %d, want ~the whole 300-job workload", rs.Backlog)
	}
	if want := int(0.01 * float64(rs.Backlog)); rs.DirtyJobs != want {
		t.Fatalf("dirty jobs = %d, want 1%% of the %d-job backlog (%d)", rs.DirtyJobs, rs.Backlog, want)
	}
	if rs.Rounds != 3 {
		t.Fatalf("measured rounds = %d, want 3", rs.Rounds)
	}
	if rs.RoundSec <= 0 || rs.RoundMedianSec <= 0 {
		t.Fatalf("non-positive round time: mean %v, median %v", rs.RoundSec, rs.RoundMedianSec)
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
