package philly

import (
	"strings"
	"testing"

	"mlfs/internal/job"
	"mlfs/internal/trace"
)

const fixture = `[
  {
    "jobid": "application_1",
    "status": "Pass",
    "submitted_time": "2017-08-07 10:00:00",
    "attempts": [
      {"start_time": "2017-08-07 10:05:00", "end_time": "2017-08-07 12:00:00",
       "detail": [{"ip": "10.0.0.1", "gpus": ["gpu0","gpu1","gpu2","gpu3"]}]}
    ]
  },
  {
    "jobid": "application_2",
    "status": "Killed",
    "submitted_time": "2017-08-07 09:00:00",
    "attempts": [
      {"start_time": "2017-08-07 09:01:00", "end_time": "2017-08-07 09:30:00",
       "detail": [{"ip": "10.0.0.2", "gpus": ["gpu0"]},
                  {"ip": "10.0.0.3", "gpus": ["gpu0","gpu1"]}]}
    ]
  },
  {
    "jobid": "application_3",
    "status": "Failed",
    "submitted_time": "2017-08-07 11:00:00",
    "attempts": []
  },
  {
    "jobid": "application_bad_time",
    "status": "Pass",
    "submitted_time": "not a time",
    "attempts": []
  }
]`

func TestLoadFixture(t *testing.T) {
	tr, err := Load(strings.NewReader(fixture), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The malformed-time row is skipped; three usable jobs remain.
	if len(tr.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(tr.Records))
	}
	// Sorted by arrival: job 2 (09:00) first, job 1 (10:00), job 3 (11:00).
	if tr.Records[0].ArrivalSec != 0 {
		t.Fatalf("first arrival = %v", tr.Records[0].ArrivalSec)
	}
	if got := tr.Records[1].ArrivalSec; got != 3600 {
		t.Fatalf("second arrival = %v, want 3600", got)
	}
	// GPU counts: job2 has 3 GPUs across hosts -> clamps down to 2;
	// job1 has 4; job3 has none recorded -> 1.
	if tr.Records[0].GPUs != 2 || tr.Records[1].GPUs != 4 || tr.Records[2].GPUs != 1 {
		t.Fatalf("gpus = %d,%d,%d", tr.Records[0].GPUs, tr.Records[1].GPUs, tr.Records[2].GPUs)
	}
	// Status maps to accuracy requirement: the passed job demands more.
	var pass, fail float64
	for i, r := range tr.Records {
		switch i {
		case 1:
			pass = r.TargetFrac
		case 2:
			fail = r.TargetFrac
		}
	}
	if pass <= fail {
		t.Fatalf("Pass job target %v must exceed Failed job target %v", pass, fail)
	}
	// The trace must materialise into runnable jobs.
	if len(tr.Records) != 3 {
		t.Fatal("materialise count")
	}
	var next job.TaskID
	for _, r := range tr.Records {
		if _, err := trace.Materialize(r, &next); err != nil {
			t.Fatalf("job %d: %v", r.JobID, err)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	a, err := Load(strings.NewReader(fixture), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(strings.NewReader(fixture), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("same seed must reproduce the conversion")
		}
	}
}

func TestLoadMaxJobs(t *testing.T) {
	tr, err := Load(strings.NewReader(fixture), Options{MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("MaxJobs ignored: %d", len(tr.Records))
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json"), Options{}); err == nil {
		t.Fatal("bad JSON must error")
	}
	if _, err := Load(strings.NewReader("[]"), Options{}); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := Load(strings.NewReader(`[{"jobid":"x","submitted_time":"bad"}]`), Options{}); err == nil {
		t.Fatal("no usable rows must error")
	}
	if _, err := LoadFile("/nonexistent/cluster_job_log", Options{}); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestClampGPUs(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 4, 7: 4, 8: 8, 31: 16, 32: 32, 100: 32}
	for in, want := range cases {
		if got := clampGPUs(in); got != want {
			t.Fatalf("clampGPUs(%d) = %d, want %d", in, got, want)
		}
	}
}
