package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlfs"
	"mlfs/internal/cluster"
	"mlfs/internal/serve"
)

// testConfig builds a small fast service configuration: 2 servers × 4
// GPUs, the paper's heuristic scheduler.
func testConfig() serve.Config {
	return serve.Config{
		NewScheduler: func() (serve.Scheduler, error) {
			return mlfs.NewScheduler("mlf-h", mlfs.SchedulerOptions{Seed: 1})
		},
		SchedulerName: "mlf-h",
		Cluster: cluster.Config{
			Servers: 2, GPUsPerServer: 4,
			GPUCapacity: 1, CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200,
		},
	}
}

// startServer boots a server with its loop running and the API mounted
// on an httptest listener.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
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
	return s, ts
}

// doJSON issues a request and decodes the JSON response into out (when
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// waitDrained polls /v1/cluster until every accepted submission is
// finalised.
func waitDrained(t *testing.T, base string, want int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cv struct {
			Submitted int `json:"jobs_submitted"`
			Queued    int `json:"jobs_queued"`
			Live      int `json:"jobs_live"`
		}
		if code := doJSON(t, "GET", base+"/v1/cluster", "", &cv); code != 200 {
			t.Fatalf("GET /v1/cluster: status %d", code)
		}
		if cv.Queued == 0 && cv.Live == 0 && cv.Submitted >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain timeout: %d queued, %d live of %d submitted", cv.Queued, cv.Live, cv.Submitted)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitStatusCancelLifecycle(t *testing.T) {
	cfg := testConfig()
	cfg.StartPaused = true
	_, ts := startServer(t, cfg)
	base := ts.URL

	// Submit with defaults filled from the seed.
	var sub struct {
		ID         int64   `json:"id"`
		ArrivalSec float64 `json:"arrival_sec"`
		State      string  `json:"state"`
	}
	if code := doJSON(t, "POST", base+"/v1/jobs", `{"gpus": 2, "seed": 7}`, &sub); code != 201 {
		t.Fatalf("submit: status %d", code)
	}
	if sub.ID != 1 || sub.State != "queued" || sub.ArrivalSec != 0 {
		t.Fatalf("submit: got %+v", sub)
	}

	// Status while queued (the clock is paused, nothing is admitted).
	var st struct {
		ID      int64  `json:"id"`
		State   string `json:"state"`
		GPUs    int    `json:"gpus"`
		Family  string `json:"family"`
		Comm    string `json:"comm"`
		Urgency int    `json:"urgency"`
	}
	if code := doJSON(t, "GET", base+"/v1/jobs/1", "", &st); code != 200 {
		t.Fatalf("status: code %d", code)
	}
	if st.State != "queued" || st.GPUs != 2 {
		t.Fatalf("status: got %+v", st)
	}
	if st.Family == "" || st.Comm == "" || st.Urgency < 1 {
		t.Fatalf("sampled defaults missing: %+v", st)
	}

	// Validation and not-found paths.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/jobs/99", "", 404},
		{"GET", "/v1/jobs/bogus", "", 400},
		{"DELETE", "/v1/jobs/99", "", 404},
		{"POST", "/v1/jobs", `{"gpus": 0}`, 400},
		{"POST", "/v1/jobs", `{"gpus": 9999}`, 400},
		{"POST", "/v1/jobs", `{"gpus": 1, "family": "alexnet++"}`, 400},
		{"POST", "/v1/jobs", `{"gpus": 1, "comm": "rdma"}`, 400},
		{"POST", "/v1/jobs", `{"gpus": 1, "stop_option": "never"}`, 400},
		{"POST", "/v1/jobs", `{"gpus": 1, "arrival_sec": -5}`, 400},
		{"POST", "/v1/jobs", `{"gpus": 1, "train_data_mb": -1}`, 400},
		{"POST", "/v1/jobs", `{"gpus": 1, "comm_vol_ps_mb": -1e6}`, 400},
		{"POST", "/v1/jobs", `{"gpus": 1, "comm_vol_ww_mb": -1e6}`, 400},
		{"POST", "/v1/jobs", `{"gpus": 1, "frobnicate": true}`, 400},
		{"POST", "/v1/jobs", `not json`, 400},
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := doJSON(t, tc.method, base+tc.path, tc.body, &e); code != tc.want {
			t.Errorf("%s %s %q: status %d, want %d", tc.method, tc.path, tc.body, code, tc.want)
		} else if e.Error == "" {
			t.Errorf("%s %s %q: error body missing", tc.method, tc.path, tc.body)
		}
	}

	// Arrival ordering: an explicit arrival may not regress the stream.
	if code := doJSON(t, "POST", base+"/v1/jobs", `{"gpus": 1, "arrival_sec": 100}`, &sub); code != 201 {
		t.Fatalf("arrival 100: status %d", code)
	}
	if sub.ID != 2 || sub.ArrivalSec != 100 {
		t.Fatalf("arrival 100: got %+v", sub)
	}
	if code := doJSON(t, "POST", base+"/v1/jobs", `{"gpus": 1, "arrival_sec": 50}`, nil); code != 409 {
		t.Fatalf("regressing arrival: status %d, want 409", code)
	}

	// Cancel the queued job: deferred (202), flagged in status.
	var cst struct {
		State           string `json:"state"`
		CancelRequested bool   `json:"cancel_requested"`
	}
	if code := doJSON(t, "DELETE", base+"/v1/jobs/1", "", &cst); code != 202 {
		t.Fatalf("cancel queued: status %d", code)
	}
	if cst.State != "queued" || !cst.CancelRequested {
		t.Fatalf("cancel queued: got %+v", cst)
	}

	// Health + metrics while paused.
	var h struct {
		Status string `json:"status"`
		Paused bool   `json:"paused"`
	}
	if code := doJSON(t, "GET", base+"/healthz", "", &h); code != 200 || h.Status != "ok" || !h.Paused {
		t.Fatalf("healthz: code %d, %+v", code, h)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"mlfs_submissions_total 2", "mlfs_paused 1", "mlfs_jobs_queued 2",
		"mlfs_gpus_total 8", "mlfs_decision_latency_seconds_bucket",
		`mlfs_http_requests_total{handler="submit",code="201"} 2`,
	} {
		if !bytes.Contains(expo, []byte(want)) {
			t.Errorf("metrics: missing %q", want)
		}
	}

	// Resume, drain, and check the final states: job 1 cancelled, job 2
	// ran to completion.
	if code := doJSON(t, "POST", base+"/v1/resume", "", nil); code != 200 {
		t.Fatalf("resume: status %d", code)
	}
	waitDrained(t, base, 2)

	var fin struct {
		State       string  `json:"state"`
		JCTSec      float64 `json:"jct_sec"`
		DeadlineMet *bool   `json:"deadline_met"`
	}
	if code := doJSON(t, "GET", base+"/v1/jobs/1", "", &fin); code != 200 {
		t.Fatalf("final status 1: code %d", code)
	}
	if fin.State != "cancelled" {
		t.Fatalf("job 1: state %q, want cancelled", fin.State)
	}
	if code := doJSON(t, "GET", base+"/v1/jobs/2", "", &fin); code != 200 {
		t.Fatalf("final status 2: code %d", code)
	}
	if fin.State != "finished" && fin.State != "stopped" {
		t.Fatalf("job 2: state %q, want finished or stopped", fin.State)
	}
	if fin.DeadlineMet == nil || fin.JCTSec <= 0 {
		t.Fatalf("job 2: missing outcome fields: %+v", fin)
	}

	// Cancelling a finalised job conflicts.
	if code := doJSON(t, "DELETE", base+"/v1/jobs/2", "", nil); code != 409 {
		t.Fatalf("cancel finalised: status %d, want 409", code)
	}

	// /v1/result is a full metrics.Result over both jobs.
	var res struct {
		Scheduler string `json:"Scheduler"`
		Jobs      int    `json:"Jobs"`
	}
	if code := doJSON(t, "GET", base+"/v1/result", "", &res); code != 200 {
		t.Fatalf("result: status %d", code)
	}
	if res.Scheduler != "mlf-h" || res.Jobs != 2 {
		t.Fatalf("result: got %+v", res)
	}
}

func TestCancelRunningJobReleasesCluster(t *testing.T) {
	cfg := testConfig()
	cfg.StartPaused = true
	// Pace the clock (2 simulated minutes per wall second) so the job is
	// still observably running when the cancel lands; as-fast-as-possible
	// would race through its whole lifetime between two status polls.
	cfg.Timescale = 120
	_, ts := startServer(t, cfg)
	base := ts.URL

	// A long job (run-to-max, large data) that will still be running
	// when we cancel it.
	body := `{"gpus": 4, "stop_option": "run-to-max", "train_data_mb": 60000, "seed": 3}`
	if code := doJSON(t, "POST", base+"/v1/jobs", body, nil); code != 201 {
		t.Fatalf("submit: status %d", code)
	}
	if code := doJSON(t, "POST", base+"/v1/resume", "", nil); code != 200 {
		t.Fatalf("resume: status %d", code)
	}

	// Wait until the job is running with placements reported.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st struct {
			State      string `json:"state"`
			Placements []struct {
				Server int `json:"server"`
				Device int `json:"device"`
			} `json:"placements"`
			TotalTasks int `json:"total_tasks"`
		}
		if code := doJSON(t, "GET", base+"/v1/jobs/1", "", &st); code != 200 {
			t.Fatalf("status: code %d", code)
		}
		if st.State == "running" && len(st.Placements) > 0 {
			if st.TotalTasks < len(st.Placements) {
				t.Fatalf("placements %d exceed tasks %d", len(st.Placements), st.TotalTasks)
			}
			break
		}
		if st.State == "finished" || st.State == "stopped" {
			t.Fatalf("job finished before it could be cancelled; pick a longer job")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached running: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Cancel while running: immediate 200, state cancelled.
	var cst struct {
		State string `json:"state"`
	}
	if code := doJSON(t, "DELETE", base+"/v1/jobs/1", "", &cst); code != 200 {
		t.Fatalf("cancel running: status %d", code)
	}
	if cst.State != "cancelled" {
		t.Fatalf("cancel running: state %q", cst.State)
	}
	waitDrained(t, base, 1)

	// The cluster is idle again.
	var cv struct {
		Completed int     `json:"jobs_completed"`
		Cancelled int     `json:"jobs_cancelled"`
		Util      float64 `json:"gpu_utilization"`
	}
	if code := doJSON(t, "GET", base+"/v1/cluster", "", &cv); code != 200 {
		t.Fatalf("cluster: code %d", code)
	}
	if cv.Completed != 1 || cv.Cancelled != 1 {
		t.Fatalf("cluster counts: %+v", cv)
	}
	if cv.Util != 0 {
		t.Fatalf("GPU utilisation %g after cancelling the only job", cv.Util)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := serve.New(serve.Config{}); err == nil {
		t.Error("New without a scheduler factory should fail")
	}
	cfg := testConfig()
	cfg.SnapshotEvery = 10 // no paths
	if _, err := serve.New(cfg); err == nil {
		t.Error("SnapshotEvery without paths should fail")
	}
	cfg = testConfig()
	cfg.SnapshotEvery = -1
	if _, err := serve.New(cfg); err == nil {
		t.Error("negative SnapshotEvery should fail")
	}
}

func TestMetricsStableWhenIdle(t *testing.T) {
	cfg := testConfig()
	cfg.StartPaused = true
	_, ts := startServer(t, cfg)

	get := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics content type %q", ct)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	a, b := get(), get()
	// Strip the series that legitimately move between scrapes of an
	// idle server (wall-clock uptime, the request counter for /metrics
	// itself); everything else must be byte-identical.
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "mlfs_uptime_seconds") ||
				strings.Contains(line, `handler="metrics"`) {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if strip(a) != strip(b) {
		t.Errorf("idle scrapes differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	for _, series := range []string{
		"mlfs_placements_total", "mlfs_migrations_total", "mlfs_evictions_total",
		"mlfs_bandwidth_mb_total", "mlfs_sched_rounds_total", "mlfs_server_failures_total",
		"mlfs_jobs_rejected_total", "mlfs_sim_time_seconds", "mlfs_servers_up",
		"mlfs_timescale", "mlfs_submit_latency_seconds_count", "mlfs_snapshots_written_total",
	} {
		if !strings.Contains(a, series) {
			t.Errorf("metrics: series %s missing", series)
		}
	}
}

func TestStopIsIdempotentAndFailsNewCalls(t *testing.T) {
	cfg := testConfig()
	s, ts := startServer(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := s.Stop(ctx); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	// API calls after shutdown fail cleanly rather than hanging.
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"gpus": 1}`, nil)
	if code != 503 {
		t.Fatalf("submit after stop: status %d, want 503", code)
	}
}

func ExampleOracle() {
	// The oracle replays a journaled workload through the batch
	// simulator under the service's exact configuration.
	cfg := serve.Config{
		NewScheduler: func() (serve.Scheduler, error) {
			return mlfs.NewScheduler("mlf-h", mlfs.SchedulerOptions{Seed: 1})
		},
		Cluster: cluster.Config{
			Servers: 2, GPUsPerServer: 4,
			GPUCapacity: 1, CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200,
		},
	}
	res, err := serve.Oracle(cfg, nil, nil) // empty journal: empty run
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Jobs)
	// Output: 0
}
