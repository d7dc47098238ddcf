package chaostest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
)

// This file is the incremental-round cross-check suite: the dirty-set
// scheduling rounds (change journal, maintained pending list, no-fit
// dominance frontier, cached priority components, round skipping) must
// reproduce the full-rescan round structure bit for bit. FullRescan
// keeps the sparse event core but rescans the whole backlog every
// round, exactly as the historical scheduler loop did — the oracle the
// incremental path is checked against. Only the execution-mode
// telemetry (SchedSeconds, DirtyJobs, SkippedRounds) may differ, and
// Counters.ZeroVolatile clears it on both sides.

// TestIncrementalFullRescanCrossCheck runs every config of the chaos
// matrix twice — once under the default incremental rounds, once with
// FullRescan — and requires bitwise-equal results.
func TestIncrementalFullRescanCrossCheck(t *testing.T) {
	for _, name := range []string{"fifo", "srtf", "mlf-h", "mlf-rl"} {
		for _, mttf := range []float64{0, 21600} {
			name, mttf := name, mttf
			t.Run(fmt.Sprintf("%s/workers=1/mttf=%.0f", name, mttf), func(t *testing.T) {
				t.Parallel()
				incremental := runToEnd(t, chaosConfig(t, name, mttf))
				fcfg := chaosConfig(t, name, mttf)
				fcfg.FullRescan = true
				full := runToEnd(t, fcfg)
				if !reflect.DeepEqual(incremental, full) {
					t.Fatalf("incremental and full-rescan runs diverged:\nincremental: %+v\nfull-rescan: %+v", incremental, full)
				}
			})
		}
	}
}

// TestIncrementalResumeWithDirtyJournal snapshots an incremental run in
// the middle of the arrival window — when the backlog is non-empty, so
// the restored context must rebuild a non-empty dirty journal and
// pending list from the queue — resumes it in a fresh simulator, and
// requires the continued run to match the uninterrupted one bit for
// bit. The DirtyJobs assertion proves the restored lineage really
// re-journalled work (the restore path re-marks every pending job
// rather than trusting pre-crash journal state).
func TestIncrementalResumeWithDirtyJournal(t *testing.T) {
	for _, mttf := range []float64{0, 21600} {
		mttf := mttf
		t.Run(fmt.Sprintf("mttf=%.0f", mttf), func(t *testing.T) {
			t.Parallel()
			golden := runToEnd(t, chaosConfig(t, "mlf-h", mttf))

			path := filepath.Join(t.TempDir(), "inc.snap")
			cut := chaosConfig(t, "mlf-h", mttf)
			cut.SnapshotEvery = 6
			cut.SnapshotPath = path
			cut.StopAtTick = 14 // arrivals span the first 20 ticks: backlog guaranteed
			s, err := sim.New(cut)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no snapshot written by tick 14: %v", err)
			}

			payload, err := snapshot.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			resumedSim, err := sim.New(chaosConfig(t, "mlf-h", mttf))
			if err != nil {
				t.Fatal(err)
			}
			if err := resumedSim.Restore(payload); err != nil {
				t.Fatal(err)
			}
			resumed, err := resumedSim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Counters.DirtyJobs == 0 {
				t.Fatal("restored run journalled no jobs — the mid-backlog snapshot should rebuild a non-empty dirty set")
			}
			resumed.Counters.ZeroVolatile()
			if !reflect.DeepEqual(golden, resumed) {
				t.Fatalf("incremental resume diverged from uninterrupted run:\ngolden:  %+v\nresumed: %+v", golden, resumed)
			}
		})
	}
}
