package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlfs/internal/serve"
	"mlfs/internal/trace"
)

// inproc serves one request through h without a listener.
func inproc(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rr
}

// envelopeLine renders one journal line: {"submit": rec} or {"cancel": c}.
func envelopeLine(t testing.TB, key string, v any) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// submitLine is the journal line of a one-GPU job id arriving at at.
func submitLine(t testing.TB, id int64, at float64) string {
	rec := trace.Generate(trace.GenConfig{Jobs: 1, Seed: id}).Records[0]
	rec.JobID, rec.ArrivalSec, rec.GPUs = id, at, 1
	return envelopeLine(t, "submit", rec)
}

// TestJournalRecoveryRejectsHostile: recovery applies the journal
// through the ordered live apply path, so it refuses — naming the line
// — what a live server cannot have journaled: a cancel before its
// job's submission, a repeated job id, an arrival before the tail, a
// record no submission can carry.
func TestJournalRecoveryRejectsHostile(t *testing.T) {
	cancel := func(id int64, at float64) string {
		return envelopeLine(t, "cancel", serve.CancelRecord{JobID: id, AtSec: at})
	}
	for _, tc := range []struct {
		name    string
		journal string
		want    string
	}{
		{"cancel before its submission", submitLine(t, 1, 0) + cancel(2, 0) + submitLine(t, 2, 0), "line 2: cancel of job 2 precedes its submission"},
		{"repeated job id", submitLine(t, 1, 0) + submitLine(t, 2, 10) + submitLine(t, 1, 20), "line 3: job 1 submitted twice"},
		{"arrival before the tail", submitLine(t, 1, 100) + submitLine(t, 2, 50), "line 2: job 2 arrives at 50, before the stream tail 100"},
		{"unknown family", submitLine(t, 1, 0) + strings.Replace(submitLine(t, 2, 0), `"Family":`, `"Family":9`, 1), "line 2: job 2: family 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.JournalPath = filepath.Join(t.TempDir(), "hostile.journal")
			if err := os.WriteFile(cfg.JournalPath, []byte(tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := serve.New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// seedJournal drives a real paused server through submissions and
// deferred cancels and returns the journal it wrote.
func seedJournal(f *testing.F) []byte {
	cfg := testConfig()
	cfg.JournalPath = filepath.Join(f.TempDir(), "seed.journal")
	cfg.StartPaused = true
	s, err := serve.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	s.Start()
	h := s.Handler()
	for _, body := range []string{
		`{"gpus": 2, "seed": 1}`,
		`{"gpus": 4, "seed": 2}`,
		`{"gpus": 1, "seed": 3, "arrival_sec": 1800}`,
		`{"gpus": 3, "seed": 4, "arrival_sec": 3600}`,
	} {
		if rr := inproc(h, "POST", "/v1/jobs", body); rr.Code != 201 {
			f.Fatalf("seed submit: %d %s", rr.Code, rr.Body)
		}
	}
	for _, id := range []string{"2", "3"} {
		if rr := inproc(h, "DELETE", "/v1/jobs/"+id, ""); rr.Code != 202 {
			f.Fatalf("seed cancel: %d %s", rr.Code, rr.Body)
		}
	}
	s.Kill()
	b, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzJournalRecovery feeds arbitrary journal bytes to serve.New. It
// must either refuse them with an error or recover a run that, drained,
// equals the batch oracle over the same journal (ReadJournal then
// Oracle) — or fails exactly when the oracle does. Runs too long to
// drain in a couple of seconds are not compared, and journals with more
// than 64 records or a job over 64 GPUs are skipped: materialising a job
// allocates per GPU, which no journal a live server wrote can exploit
// but a fuzzed one could. The seeds — a real
// submit+cancel journal, a torn copy and reordered ones — run under
// plain go test.
func FuzzJournalRecovery(f *testing.F) {
	real := seedJournal(f)
	lines := bytes.SplitAfter(real, []byte("\n"))
	f.Add(real)
	f.Add(real[:len(real)-7])
	f.Add(bytes.Join([][]byte{lines[4], lines[0], lines[1], lines[2], lines[3]}, nil)) // cancel first
	f.Add(bytes.Join([][]byte{lines[0], lines[1], lines[0]}, nil))                     // repeated submission
	f.Add([]byte("{}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		cfg := testConfig()
		cfg.JournalPath = filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(cfg.JournalPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, cancels, rerr := serve.ReadJournal(cfg.JournalPath)
		for _, r := range records {
			if len(records) > 64 || r.GPUs > 64 {
				// Materialising a job allocates per GPU; keep the run small.
				return
			}
		}
		s, err := serve.New(cfg)
		if err != nil {
			return
		}
		defer s.Kill()
		if rerr != nil {
			t.Fatalf("New recovered a journal ReadJournal refuses: %v", rerr)
		}
		s.Start()
		h := s.Handler()
		failed := false
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			if inproc(h, "GET", "/healthz", "").Code != http.StatusOK {
				failed = true
				break
			}
			var cv struct {
				Queued int `json:"jobs_queued"`
				Live   int `json:"jobs_live"`
			}
			if err := json.Unmarshal(inproc(h, "GET", "/v1/cluster", "").Body.Bytes(), &cv); err != nil {
				t.Fatal(err)
			}
			if cv.Queued == 0 && cv.Live == 0 {
				break
			}
			if time.Now().After(deadline) {
				return
			}
		}
		oracle, err := serve.Oracle(cfg, records, cancels)
		if failed || err != nil {
			if failed != (err != nil) {
				t.Fatalf("recovered run failed: %v; oracle error: %v", failed, err)
			}
			return
		}
		var live, want map[string]any
		if err := json.Unmarshal(inproc(h, "GET", "/v1/result", "").Body.Bytes(), &live); err != nil {
			t.Fatal(err)
		}
		oracle.Counters.ZeroVolatile()
		ob, _ := json.Marshal(oracle)
		json.Unmarshal(ob, &want)
		zeroVolatile(live)
		zeroVolatile(want)
		if !reflect.DeepEqual(live, want) {
			t.Fatalf("recovered run diverged from the journal oracle:\nlive:   %v\noracle: %v", live, want)
		}
	})
}
