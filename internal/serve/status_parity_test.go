package serve_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mlfs/internal/serve"
	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// parityConfig is the status-parity run: the test cluster with server
// failures that kill a job on its first hit, a journal and a snapshot
// every other tick, all under dir.
func parityConfig(dir string) serve.Config {
	cfg := testConfig()
	cfg.JournalPath = filepath.Join(dir, "run.journal")
	cfg.SnapshotPath = filepath.Join(dir, "run.snap")
	cfg.SnapshotEvery = 2
	cfg.Failures = sim.FailureConfig{MTTFSec: 2 * 3600, MTTRSec: 600, MaxRetries: -1, Seed: 2}
	cfg.StartPaused = true
	return cfg
}

// statuses reads GET /v1/jobs/{id} for ids 1..n.
func statuses(t *testing.T, base string, n int) []map[string]any {
	t.Helper()
	out := make([]map[string]any, n)
	for id := 1; id <= n; id++ {
		if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", base, id), "", &out[id-1]); code != 200 {
			t.Fatalf("job %d: status %d", id, code)
		}
	}
	return out
}

// resultOf reads /v1/result with the volatile counters zeroed.
func resultOf(t *testing.T, base string) map[string]any {
	t.Helper()
	var res map[string]any
	if code := doJSON(t, "GET", base+"/v1/result", "", &res); code != 200 {
		t.Fatalf("result: status %d", code)
	}
	zeroVolatile(res)
	return res
}

// copyFile copies src to dst.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// legacySnapshot re-wraps a snapshot's simulator payload in the first
// wrapper layout (version 1: id cursor, covered submissions, a per-job
// overlay of finalised jobs and pending cancels, payload), as a server
// before the journal-prefix wrapper wrote it. The overlay is left empty:
// this build must not read it either way.
func legacySnapshot(t *testing.T, path string, submissions int) []byte {
	t.Helper()
	b, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := snapshot.NewReader(b)
	r.Int() // wrapper version
	r.Int() // envelopes covered
	payload := r.String()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	w := snapshot.NewWriter()
	w.Int(1)
	w.Int64(int64(submissions + 1))
	w.Int(submissions)
	w.Int(0)
	w.Int(0)
	w.String(payload)
	return w.Bytes()
}

// TestStatusParityAcrossRecovery records every job's GET /v1/jobs/{id}
// at the end of a run with deferred and immediate cancels and
// failure-killed jobs, then rebuilds the run on every recovery rung —
// snapshot restore, journal-only replay, a caught-up follower, and a
// restart over a snapshot in the first wrapper layout (with the
// current and with the previous file format) — and requires the same
// status for every job and the same result on each. Status is
// therefore a function of the journal and the simulator state alone.
func TestStatusParityAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := parityConfig(dir)
	s, ts := killableServer(t, cfg)
	records := trace.Generate(trace.GenConfig{Jobs: 14, Seed: 21, DurationSec: 3 * 3600}).Records
	for _, r := range records {
		submitRecord(t, ts.URL, r)
	}
	deferred := []int{5, 11}
	for _, id := range deferred {
		var st serve.JobStatus
		if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), "", &st); code != 202 || !st.CancelRequested {
			t.Fatalf("deferred cancel of %d: status %d, %+v", id, code, st)
		}
	}

	// Step until a job trains, pause there and cancel it (200).
	for cancelled := false; !cancelled; {
		doJSON(t, "POST", ts.URL+"/v1/resume", "", nil)
		time.Sleep(time.Millisecond)
		doJSON(t, "POST", ts.URL+"/v1/pause", "", nil)
		for id, st := range statuses(t, ts.URL, len(records)) {
			if st["state"] == "running" {
				if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id+1), "", nil); code != 200 {
					t.Fatalf("immediate cancel of %d: status %d", id+1, code)
				}
				cancelled = true
				break
			}
		}
	}
	// Keep a mid-run snapshot: some jobs finalised, some not.
	deadline := time.Now().Add(60 * time.Second)
	for scrapeGauge(t, ts.URL, "mlfs_jobs_completed_total") < 5 {
		doJSON(t, "POST", ts.URL+"/v1/resume", "", nil)
		time.Sleep(time.Millisecond)
		doJSON(t, "POST", ts.URL+"/v1/pause", "", nil)
		if time.Now().After(deadline) {
			t.Fatal("run made no progress")
		}
	}
	mid := filepath.Join(dir, "mid.snap")
	copyFile(t, cfg.SnapshotPath, mid)

	doJSON(t, "POST", ts.URL+"/v1/resume", "", nil)
	waitDrained(t, ts.URL, len(records))
	want, wantRes := statuses(t, ts.URL, len(records)), resultOf(t, ts.URL)
	s.Kill()
	ts.Close()

	states := map[any]int{}
	for _, st := range want {
		states[st["state"]]++
	}
	if states["cancelled"] != len(deferred)+1 || states["killed"] == 0 {
		t.Fatalf("run ended with states %v: want %d cancelled and some killed by failures", states, len(deferred)+1)
	}

	// rung rebuilds the run in a fresh directory — a server over a copy
	// of the journal and, when snap is set, those snapshot bytes, or a
	// follower of the server at follow — drains it, and compares.
	rung := func(name string, snap []byte, resumed bool, follow string) string {
		rcfg := parityConfig(filepath.Join(dir, name))
		if err := os.Mkdir(filepath.Dir(rcfg.JournalPath), 0o755); err != nil {
			t.Fatal(err)
		}
		var srv *serve.Server
		var base string
		if follow != "" {
			rcfg.StartPaused = false // a paused follower never steps
			f, fts := startFollower(t, rcfg, follow)
			srv, base = f, fts.URL
			waitReplicated(t, base, float64(len(records)+len(deferred)+1))
		} else {
			copyFile(t, cfg.JournalPath, rcfg.JournalPath)
			if snap != nil {
				if err := os.WriteFile(rcfg.SnapshotPath, snap, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r, rts := startServer(t, rcfg)
			srv, base = r, rts.URL
			doJSON(t, "POST", base+"/v1/resume", "", nil)
		}
		if info := srv.Info(); info.Resumed != resumed || resumed && info.CompletedRestored == 0 {
			t.Fatalf("%s: recovery %+v, want resumed %v with finalised jobs restored", name, info, resumed)
		}
		waitDrained(t, base, len(records))
		got := statuses(t, base, len(records))
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				gb, _ := json.Marshal(got[i])
				wb, _ := json.Marshal(want[i])
				t.Errorf("%s: job %d status\n got  %s\n want %s", name, i+1, gb, wb)
			}
		}
		if got := resultOf(t, base); !reflect.DeepEqual(got, wantRes) {
			t.Errorf("%s: result diverged from the original run", name)
		}
		return base
	}

	midBytes, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	rung("restore", midBytes, true, "")
	primary := rung("journal-only", nil, false, "")
	rung("follower", nil, false, primary)
	legacy := snapshot.Encode(legacySnapshot(t, mid, len(records)))
	rung("legacy-wrapper", legacy, false, "")
	// The same wrapper framed under the previous file format version, as
	// the build that wrote that layout framed it.
	binary.LittleEndian.PutUint32(legacy[len("MLFSSNAP"):], snapshot.FormatVersion-1)
	rung("legacy-format", legacy, false, "")
}
