// Package loadgen drives an mlfs-serve instance with a seeded
// synthetic workload and reports what the run did. It measures no
// latency or throughput: one serial client's timings hide the time a
// request waits behind the one before it. perfbench's serve-mixed
// workload measures the service.
//
// Two modes:
//
//   - replay (closed loop, the default): the server is paused, the
//     whole workload is submitted with its generated arrival stamps,
//     then the clock is resumed and the generator waits for the run to
//     drain. Because the submitted records are exactly a Generate
//     trace, the drained server's /v1/result must equal the batch
//     oracle's result for the same records — the parity check behind
//     `make serve-smoke`.
//
//   - open (open loop, RPS > 0): submissions are paced against the
//     wall clock without pausing the server, arrival stamps assigned
//     by the server. The workload is still journaled and replayable,
//     but not precomputed.
//
// The package is a pure HTTP client of the service API — it shares no
// state with internal/serve and imports nothing from it, so it drives
// the same path an operator's tooling would use.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mlfs/internal/metrics"
	"mlfs/internal/trace"
)

const (
	// pollInterval is the drain-poll cadence.
	pollInterval = 50 * time.Millisecond
	// requestTimeout bounds each HTTP request.
	requestTimeout = 30 * time.Second
)

// Config parameterises one load-generation run.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// Jobs and Seed generate the workload (trace.Generate), arriving
	// over DurationSec simulated seconds.
	Jobs        int
	Seed        int64
	DurationSec float64
	// RPS > 0 selects open-loop mode at RPS submissions per wall
	// second; 0 selects replay mode.
	RPS float64
	// Timeout bounds the whole run (default 10 min).
	Timeout time.Duration
}

// Report is what one run did.
type Report struct {
	Mode        string
	Jobs        int
	Seed        int64
	DurationSec float64

	// Submitted counts this run's accepted submissions; Completed how
	// many of them reached a final state (cancellations included) and
	// Cancelled the cancellations among those. Jobs other clients
	// submitted to the same server are not counted.
	Submitted int
	Completed int
	Cancelled int

	// Shed counts the 429 responses this client absorbed (each
	// submission is retried after the server's Retry-After until
	// accepted); RetryWaitSeconds is the wall time spent waiting them
	// out.
	Shed             int
	RetryWaitSeconds float64

	// Result is the drained server's /v1/result — in replay mode,
	// comparable against the batch oracle for the same records.
	Result *metrics.Result
}

// Records generates the deterministic workload a run submits: exactly
// trace.Generate over (jobs, seed, durationSec), so the same triple
// always produces the same records and a batch simulation over them is
// the oracle for the served run.
func Records(jobs int, seed int64, durationSec float64) []trace.Record {
	return trace.Generate(trace.GenConfig{Jobs: jobs, Seed: seed, DurationSec: durationSec}).Records
}

// submitBody mirrors the service's SubmitRequest (kept textual here:
// the generator is a client of the public API, not of internal/serve).
type submitBody struct {
	GPUs             int      `json:"gpus"`
	Family           string   `json:"family,omitempty"`
	Comm             string   `json:"comm,omitempty"`
	Urgency          int      `json:"urgency,omitempty"`
	TargetFrac       float64  `json:"target_frac,omitempty"`
	TrainDataMB      float64  `json:"train_data_mb,omitempty"`
	CommVolPSMB      float64  `json:"comm_vol_ps_mb,omitempty"`
	CommVolWWMB      float64  `json:"comm_vol_ww_mb,omitempty"`
	DeadlineSlackSec float64  `json:"deadline_slack_sec,omitempty"`
	StopOption       string   `json:"stop_option,omitempty"`
	AllowDowngrade   *bool    `json:"allow_downgrade,omitempty"`
	Seed             int64    `json:"seed,omitempty"`
	ArrivalSec       *float64 `json:"arrival_sec,omitempty"`
}

func bodyFor(r trace.Record, withArrival bool) submitBody {
	b := submitBody{
		GPUs:             r.GPUs,
		Family:           r.Family.String(),
		Comm:             r.Comm.String(),
		Urgency:          r.Urgency,
		TargetFrac:       r.TargetFrac,
		TrainDataMB:      r.TrainDataMB,
		CommVolPSMB:      r.CommVolPS,
		CommVolWWMB:      r.CommVolWW,
		DeadlineSlackSec: r.DeadlineSlackSec,
		StopOption:       r.StopOption.String(),
		AllowDowngrade:   &r.AllowDowngrade,
		Seed:             r.Seed,
	}
	if withArrival {
		a := r.ArrivalSec
		b.ArrivalSec = &a
	}
	return b
}

// client wraps the HTTP plumbing.
type client struct {
	base string
	http *http.Client
}

// post sends a body-less POST (pause, resume).
func (c *client) post(path string) error {
	resp, err := c.http.Post(c.base+path, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&apiErr)
		return fmt.Errorf("loadgen: POST %s: %s (%s)", path, resp.Status, apiErr.Error)
	}
	return nil
}

// submit posts one job, honouring backpressure: a 429 is not an error
// but a pacing signal — the client sleeps for the server's Retry-After
// (default 1 s) and retries until the deadline. Returns the accepted
// job's id, how many sheds it absorbed and the total wall time spent
// waiting on them.
func (c *client) submit(body any, deadline time.Time) (id int64, shed int, waited time.Duration, err error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, 0, 0, err
	}
	for {
		resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, shed, waited, err
		}
		if resp.StatusCode/100 == 2 {
			var accepted struct {
				ID int64 `json:"id"`
			}
			err := json.NewDecoder(resp.Body).Decode(&accepted)
			resp.Body.Close()
			if err != nil {
				return 0, shed, waited, fmt.Errorf("loadgen: POST /v1/jobs: decoding the reply: %w", err)
			}
			return accepted.ID, shed, waited, nil
		}
		var apiErr struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			return 0, shed, waited, fmt.Errorf("loadgen: POST /v1/jobs: %s (%s)", resp.Status, apiErr.Error)
		}
		shed++
		wait := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			wait = time.Duration(s) * time.Second
		}
		if time.Now().Add(wait).After(deadline) {
			return 0, shed, waited, fmt.Errorf("loadgen: still shed after deadline: %s (%s)", resp.Status, apiErr.Error)
		}
		waited += wait
		time.Sleep(wait)
	}
}

func (c *client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// finalStates are the GET /v1/jobs/{id} states a job never leaves.
var finalStates = map[string]bool{"finished": true, "stopped": true, "killed": true, "cancelled": true}

// drain polls the run's own jobs, in submission order, until every one
// has reached a final state, and counts how they ended: completed
// counts every final state, cancelled the cancellations among them.
// Jobs other clients submitted neither hold the drain up nor count.
func (c *client) drain(ids []int64, deadline time.Time) (completed, cancelled int, err error) {
	for _, id := range ids {
		for {
			var st struct {
				State string `json:"state"`
			}
			if err := c.get(fmt.Sprintf("/v1/jobs/%d", id), &st); err != nil {
				return completed, cancelled, err
			}
			if finalStates[st.State] {
				completed++
				if st.State == "cancelled" {
					cancelled++
				}
				break
			}
			if time.Now().After(deadline) {
				return completed, cancelled, fmt.Errorf("loadgen: timeout draining: job %d is %s, %d of %d jobs done", id, st.State, completed, len(ids))
			}
			time.Sleep(pollInterval)
		}
	}
	return completed, cancelled, nil
}

// Run executes one load-generation run against a live server.
func Run(cfg Config) (*Report, error) {
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("loadgen: need a positive job count")
	}
	if cfg.DurationSec <= 0 {
		return nil, fmt.Errorf("loadgen: need a positive trace duration")
	}
	if cfg.RPS < 0 {
		return nil, fmt.Errorf("loadgen: -rps must be >= 0")
	}
	open := cfg.RPS > 0
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Minute
	}
	c := &client{base: cfg.BaseURL, http: &http.Client{Timeout: requestTimeout}}

	var health struct {
		Status string `json:"status"`
	}
	if err := c.get("/healthz", &health); err != nil {
		return nil, fmt.Errorf("loadgen: server not reachable: %w", err)
	}
	if health.Status != "ok" {
		return nil, fmt.Errorf("loadgen: server unhealthy: %s", health.Status)
	}

	records := Records(cfg.Jobs, cfg.Seed, cfg.DurationSec)
	mode := "replay"
	if open {
		mode = "open"
	}

	start := time.Now()
	deadline := start.Add(timeout)

	// Replay mode freezes the clock so the entire workload is enqueued
	// with its generated arrival stamps before the first tick — the
	// submitted stream is then byte-equal to the generated trace and
	// the run has a batch oracle. The clock is resumed whether or not
	// every submission went through, so a failed run never leaves the
	// server paused.
	if !open {
		if err := c.post("/v1/pause"); err != nil {
			return nil, err
		}
	}
	ids, shed, retryWait, err := c.submitAll(records, open, cfg.RPS, start, deadline)
	if !open {
		if rerr := c.post("/v1/resume"); rerr != nil {
			err = errors.Join(err, rerr)
		}
	}
	if err != nil {
		return nil, err
	}

	completed, cancelled, err := c.drain(ids, deadline)
	if err != nil {
		return nil, err
	}
	var result metrics.Result
	if err := c.get("/v1/result", &result); err != nil {
		return nil, err
	}
	return &Report{
		Mode:        mode,
		Jobs:        cfg.Jobs,
		Seed:        cfg.Seed,
		DurationSec: cfg.DurationSec,

		Submitted: len(ids),
		Completed: completed,
		Cancelled: cancelled,

		Shed:             shed,
		RetryWaitSeconds: retryWait.Seconds(),

		Result: &result,
	}, nil
}

// submitAll submits every record in order — paced at rps against the
// wall clock from start in open mode, with its generated arrival stamp
// in replay mode — and returns the accepted job ids with the sheds
// absorbed and the time spent waiting them out.
func (c *client) submitAll(records []trace.Record, open bool, rps float64, start, deadline time.Time) (ids []int64, shed int, retryWait time.Duration, err error) {
	ids = make([]int64, 0, len(records))
	for i, r := range records {
		if open {
			// Pace against the wall clock; no arrival stamp, the server
			// assigns live arrivals.
			next := start.Add(time.Duration(float64(i) / rps * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		id, n, waited, err := c.submit(bodyFor(r, !open), deadline)
		shed += n
		retryWait += waited
		if err != nil {
			return ids, shed, retryWait, fmt.Errorf("loadgen: job %d: %w", i, err)
		}
		ids = append(ids, id)
		if time.Now().After(deadline) {
			return ids, shed, retryWait, fmt.Errorf("loadgen: timeout after %d/%d submissions", i+1, len(records))
		}
	}
	return ids, shed, retryWait, nil
}
