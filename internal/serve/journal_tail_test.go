package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mlfs/internal/serve"
)

// writeBaseJournal drives a paused server through three submissions and
// kills it, returning the journal bytes and the offset where its last
// line starts.
func writeBaseJournal(t *testing.T, dir string) (cfg serve.Config, full []byte, lastStart int) {
	t.Helper()
	cfg = testConfig()
	cfg.JournalPath = filepath.Join(dir, "base.journal")
	cfg.StartPaused = true
	s, ts := killableServer(t, cfg)
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"gpus": 2, "seed": %d}`, seed)
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", body, nil); code != 201 {
			t.Fatalf("submit %d: status %d", seed, code)
		}
	}
	s.Kill()
	ts.Close()
	full, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 || full[len(full)-1] != '\n' {
		t.Fatalf("base journal does not end in a newline: %q", full)
	}
	return cfg, full, bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
}

// TestTornJournalTailRecovers cuts a real journal at every byte offset
// inside its last line — what a failed append (short write, full disk)
// leaves behind. That line was never acknowledged, so the server must
// start: recovery drops it, cuts it from the file, reports its length,
// appends the next submission on a clean line, and the resulting run
// still equals the batch oracle over the journal.
func TestTornJournalTailRecovers(t *testing.T) {
	dir := t.TempDir()
	base, full, lastStart := writeBaseJournal(t, dir)
	for cut := lastStart; cut < len(full); cut++ {
		cfg := base
		cfg.JournalPath = filepath.Join(dir, fmt.Sprintf("cut%d.journal", cut))
		if err := os.WriteFile(cfg.JournalPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := serve.ReadJournal(cfg.JournalPath)
		if err != nil || len(recs) != 2 {
			t.Fatalf("cut %d: ReadJournal = %d records, %v; want 2, nil", cut, len(recs), err)
		}
		if fi, _ := os.Stat(cfg.JournalPath); fi.Size() != int64(cut) {
			t.Fatalf("cut %d: ReadJournal changed the file to %d bytes", cut, fi.Size())
		}

		s, err := serve.New(cfg)
		if err != nil {
			t.Fatalf("cut %d: New: %v", cut, err)
		}
		info := s.Info()
		if info.JournalRecords != 2 || info.TornBytes != int64(cut-lastStart) {
			t.Fatalf("cut %d: Info = %+v, want 2 records and %d torn bytes", cut, info, cut-lastStart)
		}
		ts := httptest.NewServer(s.Handler())
		s.Start()
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"gpus": 2, "seed": 9}`, nil); code != 201 {
			t.Fatalf("cut %d: submit after recovery: status %d", cut, code)
		}
		got, err := os.ReadFile(cfg.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:lastStart], full[:lastStart]) || got[len(got)-1] != '\n' ||
			bytes.Count(got[lastStart:], []byte{'\n'}) != 1 {
			t.Fatalf("cut %d: journal after the next submit is not the clean prefix plus one line:\n%s", cut, got)
		}
		if recs, _, err := serve.ReadJournal(cfg.JournalPath); err != nil || len(recs) != 3 {
			t.Fatalf("cut %d: re-read = %d records, %v; want 3, nil", cut, len(recs), err)
		}

		if code := doJSON(t, "POST", ts.URL+"/v1/resume", "", nil); code != 200 {
			t.Fatalf("cut %d: resume: status %d", cut, code)
		}
		waitDrained(t, ts.URL, 3)
		var live json.RawMessage
		if code := doJSON(t, "GET", ts.URL+"/v1/result", "", &live); code != 200 {
			t.Fatalf("cut %d: result: status %d", cut, code)
		}
		oracleMatches(t, cfg, live)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Stop(ctx); err != nil {
			t.Fatalf("cut %d: Stop: %v", cut, err)
		}
		cancel()
		if t.Failed() {
			t.Fatalf("cut %d: run diverged from the oracle", cut)
		}
	}
}

// TestJournalDamageStaysFatal: only an unterminated final line is
// forgiven. A newline-terminated line that does not decode may have
// been acknowledged, and a bad line with records behind it is not a
// failed append, so both refuse to start and leave the file alone.
func TestJournalDamageStaysFatal(t *testing.T) {
	dir := t.TempDir()
	base, full, lastStart := writeBaseJournal(t, dir)
	firstEnd := bytes.IndexByte(full, '\n') + 1
	join := func(parts ...string) []byte { return []byte(strings.Join(parts, "")) }
	head, last, rest := string(full[:lastStart]), string(full[lastStart:]), string(full[firstEnd:])
	for name, content := range map[string][]byte{
		"terminated-last-line":      join(head, last[:len(last)-5], "\n"),
		"terminated-empty-envelope": join(head, "{}\n"),
		"bad-line-before-last":      join(string(full[:firstEnd]), "{\"submit\":\n", rest),
		"bad-line-and-torn-tail":    join(string(full[:firstEnd]), "{\"submit\":\n", rest[:len(rest)-5]),
	} {
		cfg := base
		cfg.JournalPath = filepath.Join(dir, name+".journal")
		if err := os.WriteFile(cfg.JournalPath, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := serve.New(cfg); err == nil {
			t.Errorf("%s: New accepted a damaged journal", name)
		}
		if _, _, err := serve.ReadJournal(cfg.JournalPath); err == nil {
			t.Errorf("%s: ReadJournal accepted a damaged journal", name)
		}
		if got, _ := os.ReadFile(cfg.JournalPath); !bytes.Equal(got, content) {
			t.Errorf("%s: a refused recovery changed the journal", name)
		}
	}
}
