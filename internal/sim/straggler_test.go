package sim

import (
	"testing"

	"mlfs/internal/trace"
)

// Straggler injection must slow jobs down, and the replication
// mitigation (§3.3.3 future work, implemented as an extension) must claw
// most of that loss back at a bandwidth cost.
func TestStragglerInjectionAndReplication(t *testing.T) {
	runWith := func(prob float64, replicate bool) float64 {
		s, err := New(Config{
			Cluster:             testClusterCfg(),
			Source:              trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: 15, Seed: 23, DurationSec: 3600})),
			Scheduler:           fifoGang{},
			StragglerProb:       prob,
			StragglerSlow:       4,
			ReplicateStragglers: replicate,
			DemandWobble:        -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgJCTSec
	}

	clean := runWith(0, false)
	slow := runWith(0.3, false)
	mitigated := runWith(0.3, true)

	if slow <= clean*1.05 {
		t.Fatalf("stragglers must hurt JCT: clean %.0f, stragglers %.0f", clean, slow)
	}
	if mitigated >= slow {
		t.Fatalf("replication must help: %.0f vs %.0f", mitigated, slow)
	}
	if mitigated > clean*1.4 {
		t.Fatalf("replication must recover most of the loss: clean %.0f, mitigated %.0f", clean, mitigated)
	}
}

func TestStragglerDeterministic(t *testing.T) {
	run := func() float64 {
		s, err := New(Config{
			Cluster:       testClusterCfg(),
			Source:        trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: 10, Seed: 29, DurationSec: 3600})),
			Scheduler:     fifoGang{},
			StragglerProb: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgJCTSec
	}
	if run() != run() {
		t.Fatal("straggler injection must be deterministic")
	}
}
