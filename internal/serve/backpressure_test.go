package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlfs/internal/serve"
)

// startServerCleanup registers the standard shutdown for a server the
// test started by hand (when Start had to be deferred past a probe).
func startServerCleanup(t *testing.T, s *serve.Server, ts *httptest.Server) {
	t.Helper()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
}

// postRaw submits a body and returns the status code plus the
// Retry-After header, which doJSON cannot surface.
func postRaw(t *testing.T, url, body string) (code int, retryAfter string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestBackpressureShedsAndRecovers drives sustained over-rate load into
// a server with a bounded admission window: the queue gauge must hold
// at the bound, every shed must be a 429 with a sane Retry-After, and
// the accepted prefix — exactly what the journal holds — must still
// replay bit-for-bit against the batch oracle. Backpressure degrades
// throughput, never correctness.
func TestBackpressureShedsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.JournalPath = filepath.Join(dir, "bp.journal")
	cfg.StartPaused = true
	cfg.MaxQueuedJobs = 5
	cfg.MaxLookaheadSec = 1800

	_, ts := startServer(t, cfg)
	base := ts.URL

	// A submission stamped far beyond the lookahead window sheds even
	// with an empty queue.
	code, ra := postRaw(t, base+"/v1/jobs", `{"gpus": 1, "seed": 50, "arrival_sec": 100000}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("lookahead shed: status %d, want 429", code)
	}
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 || sec > 60 {
		t.Fatalf("lookahead Retry-After %q, want an integer in [1,60]", ra)
	}

	// Fill the admission window, then keep hammering: everything past
	// the bound sheds, and the queue gauge never exceeds it.
	const accepted, over = 5, 20
	for i := 0; i < accepted; i++ {
		body := fmt.Sprintf(`{"gpus": %d, "seed": %d}`, 1+i%4, 100+i)
		if code, _ := postRaw(t, base+"/v1/jobs", body); code != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	for i := 0; i < over; i++ {
		code, ra := postRaw(t, base+"/v1/jobs", fmt.Sprintf(`{"gpus": 1, "seed": %d}`, 500+i))
		if code != http.StatusTooManyRequests {
			t.Fatalf("over-bound submit %d: status %d, want 429", i, code)
		}
		if sec, err := strconv.Atoi(ra); err != nil || sec < 1 || sec > 60 {
			t.Fatalf("queue shed Retry-After %q, want an integer in [1,60]", ra)
		}
	}
	if g := scrapeGauge(t, base, "mlfs_jobs_queued"); g != accepted {
		t.Fatalf("queue gauge under sustained overload: %v, want %d", g, accepted)
	}
	if g := scrapeGauge(t, base, `mlfs_load_shed_total{reason="queue"}`); g != over {
		t.Fatalf("queue shed counter: %v, want %d", g, over)
	}
	if g := scrapeGauge(t, base, `mlfs_load_shed_total{reason="lookahead"}`); g != 1 {
		t.Fatalf("lookahead shed counter: %v, want 1", g)
	}
	if g := scrapeGauge(t, base, "mlfs_admission_queue_limit"); g != accepted {
		t.Fatalf("queue limit gauge: %v, want %d", g, accepted)
	}

	// Load falls: drain the window and the server admits again.
	if code := doJSON(t, "POST", base+"/v1/resume", "", nil); code != 200 {
		t.Fatalf("resume: status %d", code)
	}
	waitDrained(t, base, accepted)
	if code, _ := postRaw(t, base+"/v1/jobs", `{"gpus": 2, "seed": 900}`); code != http.StatusCreated {
		t.Fatalf("post-drain submit: status %d, want 201", code)
	}
	waitDrained(t, base, accepted+1)

	// Shedding never contaminated the lineage: the journal holds exactly
	// the accepted prefix and replays bit-for-bit.
	journaled, cancels, err := serve.ReadJournal(cfg.JournalPath)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(journaled) != accepted+1 || len(cancels) != 0 {
		t.Fatalf("journal holds %d records and %d cancels, want %d and 0",
			len(journaled), len(cancels), accepted+1)
	}
	var live json.RawMessage
	if code := doJSON(t, "GET", base+"/v1/result", "", &live); code != 200 {
		t.Fatalf("result: status %d", code)
	}
	oracle, err := serve.Oracle(cfg, journaled, cancels)
	if err != nil {
		t.Fatalf("Oracle: %v", err)
	}
	oracle.Counters.ZeroVolatile()
	var liveRes, oracleRes map[string]any
	if err := json.Unmarshal(live, &liveRes); err != nil {
		t.Fatalf("decode live result: %v", err)
	}
	ob, _ := json.Marshal(oracle)
	json.Unmarshal(ob, &oracleRes)
	zeroVolatile(liveRes)
	zeroVolatile(oracleRes)
	if !reflect.DeepEqual(liveRes, oracleRes) {
		lb, _ := json.MarshalIndent(liveRes, "", " ")
		gb, _ := json.MarshalIndent(oracleRes, "", " ")
		t.Errorf("accepted prefix diverged from the oracle:\nlive:   %s\noracle: %s", lb, gb)
	}
}

// TestSubmitBodyTooLarge: oversized submit bodies are rejected with 413
// before they can tie up the decoder.
func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := startServer(t, testConfig())
	huge := fmt.Sprintf(`{"gpus": 1, "seed": 1, "pad": %q}`, strings.Repeat("x", 2<<20))
	if code, _ := postRaw(t, ts.URL+"/v1/jobs", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", code)
	}
}

// TestOversizedSubmitRefusedFast: a GPU count far past the cluster is
// refused before the loop materialises the job, whose cost grows faster
// than linearly in the count, so one request cannot pin the event loop.
// It answers 400 within a short deadline and journals nothing.
func TestOversizedSubmitRefusedFast(t *testing.T) {
	cfg := testConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "oversized.journal")
	_, ts := startServer(t, cfg)

	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"gpus": 200000}`))
	if err != nil {
		t.Fatalf("oversized submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized submit: status %d, want 400", resp.StatusCode)
	}
	records, cancels, err := serve.ReadJournal(cfg.JournalPath)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(records) != 0 || len(cancels) != 0 {
		t.Fatalf("journal holds %d records and %d cancels, want none", len(records), len(cancels))
	}
}

// TestReadyzAcrossRecovery exercises the readiness probe around a
// restart: not ready before Start (recovery window), ready once the
// loop runs, and the liveness probe stays 200 throughout the run.
func TestReadyzAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.JournalPath = filepath.Join(dir, "probe.journal")
	cfg.StartPaused = true

	s1, ts1 := startServer(t, cfg)
	const jobs = 10
	for i := 0; i < jobs; i++ {
		body := fmt.Sprintf(`{"gpus": %d, "seed": %d}`, 1+i%4, 100+i)
		if code := doJSON(t, "POST", ts1.URL+"/v1/jobs", body, nil); code != 201 {
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	if code := doJSON(t, "GET", ts1.URL+"/readyz", "", nil); code != 200 {
		t.Fatalf("primary readyz: status %d", code)
	}
	s1.Kill()
	ts1.Close()

	// Restart, but probe before Start: the loop does not exist yet, so
	// the server is alive-but-not-ready — readyz must answer 503 without
	// blocking on the (not yet running) event loop.
	s2, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	var rd struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if code := doJSON(t, "GET", ts2.URL+"/readyz", "", &rd); code != 503 || rd.Ready {
		t.Fatalf("pre-start readyz: status %d ready %v, want 503 not-ready", code, rd.Ready)
	}
	if !strings.Contains(rd.Reason, "starting") {
		t.Fatalf("pre-start readyz reason %q, want a starting/recovering reason", rd.Reason)
	}

	s2.Start()
	startServerCleanup(t, s2, ts2)
	if code := doJSON(t, "GET", ts2.URL+"/readyz", "", &rd); code != 200 || !rd.Ready {
		t.Fatalf("post-start readyz: status %d ready %v, want 200 ready", code, rd.Ready)
	}
	if code := doJSON(t, "GET", ts2.URL+"/healthz", "", nil); code != 200 {
		t.Fatalf("post-start healthz: status %d", code)
	}
	if info := s2.Info(); info.JournalRecords != jobs {
		t.Fatalf("recovered %d journal records, want %d", info.JournalRecords, jobs)
	}
	if code := doJSON(t, "POST", ts2.URL+"/v1/resume", "", nil); code != 200 {
		t.Fatalf("resume: status %d", code)
	}
	waitDrained(t, ts2.URL, jobs)
}
