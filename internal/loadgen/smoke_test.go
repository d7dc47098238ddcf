package loadgen_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlfs"
	"mlfs/internal/cluster"
	"mlfs/internal/loadgen"
	"mlfs/internal/serve"
)

// TestServeSmokeParity is the serve-smoke check behind `make
// serve-smoke`: boot the service on the paper's real-testbed cluster,
// drive 1000 seeded submissions through the HTTP API with the load
// generator, drain, and require the service's /v1/result and /metrics
// counters to be identical to a batch simulation over the journaled
// workload. It is the end-to-end proof that the online service is the
// batch simulator plus an event loop — same placements, same
// migrations, same metrics, byte for byte.
func TestServeSmokeParity(t *testing.T) {
	const jobs = 1000
	dir := t.TempDir()
	cfg := serve.Config{
		NewScheduler: func() (serve.Scheduler, error) {
			return mlfs.NewScheduler("mlf-h", mlfs.SchedulerOptions{Seed: 1})
		},
		SchedulerName: "mlf-h",
		Cluster:       cluster.PaperRealConfig(),
		JournalPath:   filepath.Join(dir, "smoke.journal"),
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})

	dur := mlfs.DurationForCluster(jobs, cluster.PaperRealConfig().TotalGPUs())
	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:     ts.URL,
		Jobs:        jobs,
		Seed:        1,
		DurationSec: dur,
		Timeout:     5 * time.Minute,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if rep.Submitted != jobs || rep.Completed != jobs {
		t.Fatalf("submitted %d completed %d, want %d each", rep.Submitted, rep.Completed, jobs)
	}

	// Parity: batch-replay the journal (the workload exactly as the
	// service accepted it) and compare results modulo the volatile
	// counters (wall-clock decision time; incremental-round telemetry a
	// restore rebuilds conservatively).
	journaled, cancels, err := serve.ReadJournal(cfg.JournalPath)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(journaled) != jobs || len(cancels) != 0 {
		t.Fatalf("journal holds %d records and %d cancels, want %d and 0", len(journaled), len(cancels), jobs)
	}
	oracle, err := serve.Oracle(cfg, journaled, cancels)
	if err != nil {
		t.Fatalf("Oracle: %v", err)
	}
	live := *rep.Result
	live.Counters.ZeroVolatile()
	oracle.Counters.ZeroVolatile()
	live.Counters.SimulatedSec = 0
	oracle.Counters.SimulatedSec = 0
	if !reflect.DeepEqual(&live, oracle) {
		t.Errorf("served run diverged from batch oracle:\nlive:   %+v\noracle: %+v", rep.Result, oracle)
	}

	// The /metrics counters agree with the oracle's too — the
	// exposition reports the same run the batch simulator reproduces.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	oc := oracle.Counters
	for series, want := range map[string]float64{
		"mlfs_placements_total":     float64(oc.Placements),
		"mlfs_migrations_total":     float64(oc.Migrations),
		"mlfs_evictions_total":      float64(oc.Evictions),
		"mlfs_sched_rounds_total":   float64(oc.SchedRounds),
		"mlfs_jobs_rejected_total":  float64(oc.Rejected),
		"mlfs_submissions_total":    jobs,
		"mlfs_jobs_completed_total": jobs,
	} {
		line := fmt.Sprintf("%s %g", series, want)
		if !strings.Contains(string(expo), line+"\n") {
			t.Errorf("metrics: want %q", line)
		}
	}
}

// TestOpenLoopAgainstLiveServer exercises the open-loop path: no
// pause, wall-clock pacing, server-stamped arrivals.
func TestOpenLoopAgainstLiveServer(t *testing.T) {
	cfg := serve.Config{
		NewScheduler: func() (serve.Scheduler, error) {
			return mlfs.NewScheduler("mlf-h", mlfs.SchedulerOptions{Seed: 1})
		},
		SchedulerName: "mlf-h",
		Cluster:       cluster.PaperRealConfig(),
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})

	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:     ts.URL,
		Jobs:        30,
		Seed:        5,
		DurationSec: 3600,
		RPS:         2000,
		Timeout:     2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if rep.Mode != "open" || rep.Submitted != 30 || rep.Completed != 30 {
		t.Fatalf("open-loop report: %+v", rep)
	}
}

// startLive boots cfg's service with its loop running behind an
// httptest listener, stopped at cleanup.
func startLive(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	return ts
}

func mlfhConfig() serve.Config {
	return serve.Config{
		NewScheduler: func() (serve.Scheduler, error) {
			return mlfs.NewScheduler("mlf-h", mlfs.SchedulerOptions{Seed: 1})
		},
		SchedulerName: "mlf-h",
		Cluster:       cluster.PaperRealConfig(),
	}
}

// TestReplayResumesServerOnError: a replay run that cannot submit its
// whole workload — the admission bound is below the job count and the
// run times out while shed — fails, and leaves the server resumed, not
// paused.
func TestReplayResumesServerOnError(t *testing.T) {
	cfg := mlfhConfig()
	cfg.MaxQueuedJobs = 5
	ts := startLive(t, cfg)
	_, err := loadgen.Run(loadgen.Config{BaseURL: ts.URL, Jobs: 20, Seed: 1, DurationSec: 3600, Timeout: 3 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "still shed") {
		t.Fatalf("Run = %v, want a still-shed error", err)
	}
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cv struct {
		Paused bool `json:"paused"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	if cv.Paused {
		t.Fatal("the failed run left the server paused")
	}
}

// TestReportCountsOwnJobs: against a server that already drained
// another run, a report counts this run's submissions only, and the run
// waits for its own jobs to finish.
func TestReportCountsOwnJobs(t *testing.T) {
	ts := startLive(t, mlfhConfig())
	if _, err := loadgen.Run(loadgen.Config{BaseURL: ts.URL, Jobs: 30, Seed: 1, DurationSec: 3600, Timeout: time.Minute}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	rep, err := loadgen.Run(loadgen.Config{BaseURL: ts.URL, Jobs: 10, Seed: 2, DurationSec: 3600, RPS: 2000, Timeout: time.Minute})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if rep.Submitted != 10 || rep.Completed != 10 || rep.Cancelled != 0 {
		t.Fatalf("second run reports submitted %d, completed %d, cancelled %d; want 10, 10, 0",
			rep.Submitted, rep.Completed, rep.Cancelled)
	}
	if rep.Result.Jobs != 40 {
		t.Fatalf("drained server result holds %d jobs, want both runs' 40", rep.Result.Jobs)
	}
}
