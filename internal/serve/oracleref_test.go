package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"mlfs"
	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/sim"
	"mlfs/internal/trace"
)

// refOracle is the reference the batch oracle is checked against: the
// journal replay written as a host loop around the simulator, applying
// every cancellation from outside through ActiveJobs, Consumed and
// CancelJob — due cancels before each step, deferred ones right after
// the step that admitted their job. Oracle must match it bit for bit.
func refOracle(cfg Config, records []trace.Record, cancels []CancelRecord) (*metrics.Result, error) {
	s, err := cfg.NewScheduler()
	if err != nil {
		return nil, err
	}
	src := &liveQueue{records: append([]trace.Record(nil), records...)}
	siml, err := sim.New(cfg.simConfig(src, s))
	if err != nil {
		return nil, err
	}
	if len(cancels) == 0 {
		// Plain workload: the batch Run loop, the exact code path the
		// bit-identity argument names.
		return siml.Run()
	}

	// SimIndex is stream order; a cancel names its job by id.
	byID := make(map[int64]int, len(records))
	for i, r := range records {
		byID[r.JobID] = i
	}
	future := append([]CancelRecord(nil), cancels...)
	sort.SliceStable(future, func(i, j int) bool { return future[i].AtSec < future[j].AtSec })
	for _, c := range future {
		if _, ok := byID[c.JobID]; !ok {
			return nil, fmt.Errorf("serve: journal cancels unknown job %d", c.JobID)
		}
	}
	// cancelLive mirrors Server.liveJob + CancelJob: cancel the job if
	// it is in the active set, no-op if it already retired.
	cancelLive := func(simIndex int) {
		for _, j := range siml.ActiveJobs() {
			if j.SimIndex == simIndex {
				siml.CancelJob(j)
				return
			}
		}
	}
	var pending []int // admitted-later cancels, mirroring pendingCancels
	for {
		// Due cancels apply before the next step, exactly where the live
		// loop applies a DELETE drained between steps.
		for len(future) > 0 && future[0].AtSec <= siml.Now() {
			i := byID[future[0].JobID]
			future = future[1:]
			if i >= siml.Consumed() {
				pending = append(pending, i)
			} else {
				cancelLive(i)
			}
		}
		progressed, err := siml.RunStep()
		if err != nil {
			return nil, err
		}
		// Deferred cancels fire right after the step that admitted their
		// job, mirroring Server.applyPendingCancels.
		keep := pending[:0]
		for _, i := range pending {
			if i >= siml.Consumed() {
				keep = append(keep, i)
			} else {
				cancelLive(i)
			}
		}
		pending = keep
		if !progressed {
			break
		}
	}
	return siml.Finish(), nil
}

// refConfig is the oracle tables' service: 2 servers × 4 GPUs under
// MLF-H, optionally with server failures (MTTF mttf seconds).
func refConfig(mttf float64) Config {
	cfg := Config{
		NewScheduler: func() (Scheduler, error) {
			return mlfs.NewScheduler("mlf-h", mlfs.SchedulerOptions{Seed: 1})
		},
		Cluster: cluster.Config{
			Servers: 2, GPUsPerServer: 4,
			GPUCapacity: 1, CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200,
		},
	}
	if mttf > 0 {
		cfg.Failures = sim.FailureConfig{MTTFSec: mttf, MTTRSec: 600, Seed: 3}
	}
	return cfg
}

// probe steps a plain batch run of records until pick names a job, and
// returns that job's id with the clock at that point.
func probe(t *testing.T, cfg Config, records []trace.Record, pick func(*sim.Simulator) (int, bool)) (int64, float64) {
	t.Helper()
	s, err := cfg.NewScheduler()
	if err != nil {
		t.Fatal(err)
	}
	siml, err := sim.New(cfg.simConfig(&liveQueue{records: records}, s))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if i, ok := pick(siml); ok {
			return records[i].JobID, siml.Now()
		}
		if more, err := siml.RunStep(); err != nil || !more {
			t.Fatalf("probe: run ended before the wanted state (err %v)", err)
		}
	}
}

// resultJSON renders a result with the wall-clock counters zeroed, so
// two results compare bit for bit (encoding/json prints floats exactly).
func resultJSON(t *testing.T, res *metrics.Result) string {
	t.Helper()
	res.Counters.ZeroVolatile()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOracleMatchesReference: the batch oracle, which hands every
// journaled cancel to Simulator.CancelAt and calls Run, reproduces the
// host-loop reference bit for bit over a table of cancellation shapes,
// and each shape that should change the run does.
func TestOracleMatchesReference(t *testing.T) {
	records := trace.Generate(trace.GenConfig{Jobs: 16, Seed: 11, DurationSec: 6 * 3600}).Records
	// The latest arrival that fits the cluster (a larger one is rejected
	// at admission, where a cancel has nothing left to do).
	last := records[len(records)-1]
	for i := len(records) - 1; last.GPUs > 4; i-- {
		last = records[i]
	}
	running := func(s *sim.Simulator) (int, bool) {
		for _, j := range s.ActiveJobs() {
			if j.State == job.Running && j.Progress > 0 {
				return j.SimIndex, true
			}
		}
		return 0, false
	}
	parked := func(s *sim.Simulator) (int, bool) {
		for _, j := range s.Parked() {
			if !j.Done() && j.NextRetryAt > s.Now() {
				return j.SimIndex, true
			}
		}
		return 0, false
	}
	finished := func(s *sim.Simulator) (int, bool) {
		for _, tl := range s.Tallies() {
			if job.State(tl.State) == job.Finished {
				return tl.SimIndex, true
			}
		}
		return 0, false
	}
	const mttf = 2 * 3600
	midID, midAt := probe(t, refConfig(0), records, running)
	parkID, parkAt := probe(t, refConfig(mttf), records, parked)
	doneID, doneAt := probe(t, refConfig(0), records, finished)

	for _, tc := range []struct {
		name    string
		mttf    float64
		cancels []CancelRecord
		changes bool // whether the cancels change the result
	}{
		{"at t=0", 0, []CancelRecord{{JobID: records[0].JobID, AtSec: 0}}, true},
		{"before admission", 0, []CancelRecord{{JobID: last.JobID, AtSec: last.ArrivalSec / 2}}, true},
		{"mid-run", 0, []CancelRecord{{JobID: midID, AtSec: midAt}}, true},
		{"parked under failures", mttf, []CancelRecord{{JobID: parkID, AtSec: parkAt}}, true},
		{"two cancels for one job", 0, []CancelRecord{{JobID: midID, AtSec: midAt + 600}, {JobID: midID, AtSec: midAt}}, true},
		{"finished job", 0, []CancelRecord{{JobID: doneID, AtSec: doneAt}}, false},
		{"all together under failures", mttf, []CancelRecord{
			{JobID: records[0].JobID, AtSec: 0},
			{JobID: last.JobID, AtSec: last.ArrivalSec / 2},
			{JobID: parkID, AtSec: parkAt},
			{JobID: midID, AtSec: midAt},
			{JobID: doneID, AtSec: doneAt},
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := refConfig(tc.mttf)
			want, err := refOracle(cfg, records, tc.cancels)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Oracle(cfg, records, tc.cancels)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Oracle(cfg, records, nil)
			if err != nil {
				t.Fatal(err)
			}
			w, g, p := resultJSON(t, want), resultJSON(t, got), resultJSON(t, plain)
			if g != w {
				t.Fatalf("Oracle diverged from the reference:\nwant %s\ngot  %s", w, g)
			}
			if (g != p) != tc.changes {
				t.Fatalf("cancels changed the result: %v, want %v", g != p, tc.changes)
			}
		})
	}
}
