package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"mlfs/internal/serve"
	"mlfs/internal/trace"
)

// startFollower boots a hot-standby tailing the given primary, with its
// own journal so a promotion inherits a durable, replayable lineage.
func startFollower(t *testing.T, cfg serve.Config, primaryURL string) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg.FollowURL = primaryURL
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("follower New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("follower Stop: %v", err)
		}
	})
	return s, ts
}

// waitReplicated polls the follower's /metrics until it has applied the
// wanted number of journal envelopes from the primary.
func waitReplicated(t *testing.T, base string, want float64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if got := scrapeGauge(t, base, "mlfs_replication_applied_total"); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication stalled: applied %v of %v wanted envelopes",
				scrapeGauge(t, base, "mlfs_replication_applied_total"), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailoverPromotedFollowerMatchesOracle is the failover chaos test:
// a primary with a journal takes load while a hot standby tails its
// replication stream; the primary is killed cold mid-run; the standby
// is promoted and takes the rest of the load. The promoted server's
// final result must equal the batch oracle replayed over its own
// stitched journal, and that journal must extend the dead primary's
// journal byte for byte — failover loses no acknowledged record and
// bends no lineage.
func TestFailoverPromotedFollowerMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	pcfg := testConfig()
	pcfg.JournalPath = filepath.Join(dir, "primary.journal")
	pcfg.StartPaused = true

	const batch1, batch2 = 40, 15
	cancelIDs := []int{3, 11}
	records := trace.Generate(trace.GenConfig{Jobs: batch1, Seed: 7, DurationSec: 4 * 3600}).Records

	primary, err := serve.New(pcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pts := httptest.NewServer(primary.Handler())
	primary.Start()

	fcfg := testConfig()
	fcfg.JournalPath = filepath.Join(dir, "follower.journal")
	_, fts := startFollower(t, fcfg, pts.URL)

	// The standby is alive but not ready: reads work, writes 503.
	if code := doJSON(t, "GET", fts.URL+"/healthz", "", nil); code != 200 {
		t.Fatalf("follower healthz: status %d", code)
	}
	if code := doJSON(t, "GET", fts.URL+"/readyz", "", nil); code != 503 {
		t.Fatalf("follower readyz: status %d, want 503", code)
	}
	for _, probe := range []struct{ method, path, body string }{
		{"POST", "/v1/jobs", `{"gpus": 1}`},
		{"POST", "/v1/pause", ""},
		{"DELETE", "/v1/jobs/1", ""},
	} {
		if code := doJSON(t, probe.method, fts.URL+probe.path, probe.body, nil); code != 503 {
			t.Fatalf("follower %s %s: status %d, want 503", probe.method, probe.path, code)
		}
	}
	if g := scrapeGauge(t, fts.URL, "mlfs_follower"); g != 1 {
		t.Fatalf("mlfs_follower on standby: %v, want 1", g)
	}

	// Load phase 1 against the primary, including deferred cancels so
	// the stream carries both envelope kinds.
	for _, r := range records {
		submitRecord(t, pts.URL, r)
	}
	for _, id := range cancelIDs {
		if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/jobs/%d", pts.URL, id), "", nil); code != 202 {
			t.Fatalf("cancel %d: status %d", id, code)
		}
	}
	waitReplicated(t, fts.URL, float64(batch1+len(cancelIDs)))

	// Unpause and let the run make real progress, then kill the primary
	// cold: no drain, no goodbye to the replication stream.
	if code := doJSON(t, "POST", pts.URL+"/v1/resume", "", nil); code != 200 {
		t.Fatalf("resume: status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cv struct {
			Completed int `json:"jobs_completed"`
			Queued    int `json:"jobs_queued"`
			Live      int `json:"jobs_live"`
		}
		if code := doJSON(t, "GET", pts.URL+"/v1/cluster", "", &cv); code != 200 {
			t.Fatalf("cluster: status %d", code)
		}
		if cv.Completed >= 5 {
			break
		}
		if cv.Queued == 0 && cv.Live == 0 {
			break // drained before the kill; failover still testable
		}
		if time.Now().After(deadline) {
			t.Fatalf("no primary progress: %+v", cv)
		}
		time.Sleep(5 * time.Millisecond)
	}
	primary.Kill()
	pts.Close()

	// Promote. The call is synchronous through the event loop; a second
	// promote is an idempotent no-op.
	var pr struct {
		Promoted bool `json:"promoted"`
	}
	if code := doJSON(t, "POST", fts.URL+"/v1/promote", "", &pr); code != 200 || !pr.Promoted {
		t.Fatalf("promote: status %d, promoted %v", code, pr.Promoted)
	}
	if code := doJSON(t, "POST", fts.URL+"/v1/promote", "", &pr); code != 200 || pr.Promoted {
		t.Fatalf("second promote: status %d, promoted %v, want false", code, pr.Promoted)
	}
	if code := doJSON(t, "GET", fts.URL+"/readyz", "", nil); code != 200 {
		t.Fatalf("promoted readyz: status %d", code)
	}
	if g := scrapeGauge(t, fts.URL, "mlfs_follower"); g != 0 {
		t.Fatalf("mlfs_follower after promote: %v, want 0", g)
	}

	// The promoted server takes the rest of the load and drains.
	for i := 0; i < batch2; i++ {
		body := fmt.Sprintf(`{"gpus": %d, "seed": %d}`, 1+i%4, 2000+i)
		if code := doJSON(t, "POST", fts.URL+"/v1/jobs", body, nil); code != 201 {
			t.Fatalf("post-promotion submit %d: status %d", i, code)
		}
	}
	waitDrained(t, fts.URL, batch1+batch2)

	// Every job finalised, the replicated cancellations honoured.
	for id := 1; id <= batch1+batch2; id++ {
		var st struct {
			State string `json:"state"`
		}
		if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", fts.URL, id), "", &st); code != 200 {
			t.Fatalf("job %d lost across failover: status %d", id, code)
		}
		switch st.State {
		case "finished", "stopped", "killed", "cancelled":
		default:
			t.Fatalf("job %d not finalised after drain: %q", id, st.State)
		}
	}
	for _, id := range cancelIDs {
		var st struct {
			State string `json:"state"`
		}
		doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", fts.URL, id), "", &st)
		if st.State != "cancelled" {
			t.Errorf("replicated cancel of job %d: state %q, want cancelled", id, st.State)
		}
	}

	// The dead primary's journal is a byte-for-byte prefix of the
	// promoted server's journal: replication copied stored lines, not
	// re-encodings of them.
	pbytes, err := os.ReadFile(pcfg.JournalPath)
	if err != nil {
		t.Fatalf("read primary journal: %v", err)
	}
	fbytes, err := os.ReadFile(fcfg.JournalPath)
	if err != nil {
		t.Fatalf("read follower journal: %v", err)
	}
	if !bytes.HasPrefix(fbytes, pbytes) {
		t.Fatalf("follower journal does not extend the primary journal byte-for-byte")
	}

	// Replay parity over the stitched journal: the promoted run equals
	// the batch oracle, exactly as a never-failed primary would.
	var live json.RawMessage
	if code := doJSON(t, "GET", fts.URL+"/v1/result", "", &live); code != 200 {
		t.Fatalf("result: status %d", code)
	}
	journaled, cancels, err := serve.ReadJournal(fcfg.JournalPath)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(journaled) != batch1+batch2 || len(cancels) != len(cancelIDs) {
		t.Fatalf("stitched journal holds %d records and %d cancels, want %d and %d",
			len(journaled), len(cancels), batch1+batch2, len(cancelIDs))
	}
	oracle, err := serve.Oracle(fcfg, journaled, cancels)
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
		t.Errorf("promoted run diverged from the stitched-journal oracle:\nlive:   %s\noracle: %s", lb, gb)
	}
}

// TestPromoteOnLossSelfPromotes covers the unattended path: a follower
// started with PromoteOnLoss takes over by itself once the primary has
// been unreachable long enough, without any operator POST.
func TestPromoteOnLossSelfPromotes(t *testing.T) {
	dir := t.TempDir()
	pcfg := testConfig()
	pcfg.JournalPath = filepath.Join(dir, "primary.journal")
	pcfg.StartPaused = true

	primary, err := serve.New(pcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pts := httptest.NewServer(primary.Handler())
	primary.Start()

	fcfg := testConfig()
	fcfg.JournalPath = filepath.Join(dir, "follower.journal")
	fcfg.PromoteOnLoss = 300 * time.Millisecond
	_, fts := startFollower(t, fcfg, pts.URL)

	const jobs = 6
	for i := 0; i < jobs; i++ {
		body := fmt.Sprintf(`{"gpus": %d, "seed": %d}`, 1+i%4, 100+i)
		if code := doJSON(t, "POST", pts.URL+"/v1/jobs", body, nil); code != 201 {
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	waitReplicated(t, fts.URL, jobs)

	primary.Kill()
	pts.Close()

	// The follower must notice the loss and promote itself: writes start
	// succeeding without any explicit promotion call.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := doJSON(t, "POST", fts.URL+"/v1/jobs", `{"gpus": 1, "seed": 999}`, nil); code == 201 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never self-promoted after primary loss")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := doJSON(t, "GET", fts.URL+"/readyz", "", nil); code != 200 {
		t.Fatalf("self-promoted readyz: status %d", code)
	}
	waitDrained(t, fts.URL, jobs+1)
}

// TestFailoverDeleteBeforeReplicatedCancelIsDue: a follower holds a
// replicated cancel stamped ahead of its own clock when it is promoted.
// That cancel is not pending yet, so a DELETE of the job journals a
// second cancel stamped now and kills the job at once (200), and the
// stitched journal still replays to the live result.
func TestFailoverDeleteBeforeReplicatedCancelIsDue(t *testing.T) {
	rec := trace.Generate(trace.GenConfig{Jobs: 1, Seed: 3}).Records[0]
	rec.JobID, rec.ArrivalSec, rec.GPUs = 1, 0, 2
	var lines [][]byte
	for _, env := range []any{
		map[string]any{"submit": rec},
		map[string]any{"cancel": serve.CancelRecord{JobID: 1, AtSec: 600}},
	} {
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	// A primary whose clock stands at 0: the follower may run one tick
	// past it, to 60, and no further.
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.Atoi(r.URL.Query().Get("from"))
		for _, l := range lines[min(from, len(lines)):] {
			w.Write(append(l, '\n'))
		}
		json.NewEncoder(w).Encode(map[string]any{"horizon": 0.0, "next": len(lines)})
	}))

	cfg := testConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "follower.journal")
	cfg.Timescale = 1 // once promoted, the next tick is a wall minute away
	_, fts := startFollower(t, cfg, primary.URL)
	waitReplicated(t, fts.URL, float64(len(lines)))
	var st serve.JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for doJSON(t, "GET", fts.URL+"/v1/jobs/1", "", &st); st.State != "running"; doJSON(t, "GET", fts.URL+"/v1/jobs/1", "", &st) {
		if time.Now().After(deadline) {
			t.Fatalf("replicated job never ran: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.CancelRequested {
		t.Fatalf("cancel stamped 600 reads as requested at the follower's clock: %+v", st)
	}
	primary.Close()

	if code := doJSON(t, "POST", fts.URL+"/v1/promote", "", nil); code != 200 {
		t.Fatalf("promote: status %d", code)
	}
	if code := doJSON(t, "DELETE", fts.URL+"/v1/jobs/1", "", &st); code != 200 || st.State != "cancelled" {
		t.Fatalf("DELETE after promotion: status %d, %+v; want 200 cancelled", code, st)
	}
	records, cancels, err := serve.ReadJournal(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || len(cancels) != 2 || cancels[0].AtSec != 600 || cancels[1].AtSec >= 600 {
		t.Fatalf("journal holds %d records and cancels %+v; want the replicated cancel then one stamped now", len(records), cancels)
	}
	var live json.RawMessage
	if code := doJSON(t, "GET", fts.URL+"/v1/result", "", &live); code != 200 {
		t.Fatalf("result: status %d", code)
	}
	oracleMatches(t, cfg, live)
}
