package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/learncurve"
	"mlfs/internal/metrics"
	"mlfs/internal/trace"
)

// HTTP layer. Handlers validate and shape requests, then execute the
// mutating or state-reading part as one closure on the event loop (see
// Server.do); nothing here touches loop-owned state directly.

// SubmitRequest is the POST /v1/jobs body. GPUs is required; every
// other field defaults to a deterministic synthetic-Philly sample
// drawn from the job's seed, so a minimal curl gets a realistic job
// and a full loadgen record is reproduced exactly.
type SubmitRequest struct {
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

// SubmitResponse is the POST /v1/jobs reply.
type SubmitResponse struct {
	ID         int64   `json:"id"`
	ArrivalSec float64 `json:"arrival_sec"`
	State      string  `json:"state"`
}

// TaskPlacement is one placed task in a JobStatus.
type TaskPlacement struct {
	Task   int64 `json:"task"`
	Server int   `json:"server"`
	Device int   `json:"device"`
}

// JobStatus is the GET /v1/jobs/{id} reply.
type JobStatus struct {
	ID              int64           `json:"id"`
	State           string          `json:"state"`
	GPUs            int             `json:"gpus"`
	Family          string          `json:"family"`
	Comm            string          `json:"comm"`
	Urgency         int             `json:"urgency"`
	ArrivalSec      float64         `json:"arrival_sec"`
	CancelRequested bool            `json:"cancel_requested,omitempty"`
	ProgressIters   float64         `json:"progress_iters,omitempty"`
	MaxIterations   int             `json:"max_iterations,omitempty"`
	PlacedTasks     int             `json:"placed_tasks,omitempty"`
	TotalTasks      int             `json:"total_tasks,omitempty"`
	Placements      []TaskPlacement `json:"placements,omitempty"`
	DeadlineSec     float64         `json:"deadline_sec,omitempty"`
	Retries         int             `json:"retries,omitempty"`
	WaitSec         float64         `json:"wait_sec,omitempty"`
	FinishSec       float64         `json:"finish_sec,omitempty"`
	JCTSec          float64         `json:"jct_sec,omitempty"`
	AccuracyAtDL    float64         `json:"accuracy_at_deadline,omitempty"`
	DeadlineMet     *bool           `json:"deadline_met,omitempty"`
	AccuracyMet     *bool           `json:"accuracy_met,omitempty"`
}

// ClusterStatus is the GET /v1/cluster reply.
type ClusterStatus struct {
	Scheduler      string  `json:"scheduler"`
	Servers        int     `json:"servers"`
	ServersUp      int     `json:"servers_up"`
	GPUs           int     `json:"gpus"`
	Tick           int     `json:"tick"`
	SimTimeSec     float64 `json:"sim_time_sec"`
	Paused         bool    `json:"paused"`
	Follower       bool    `json:"follower,omitempty"`
	Timescale      float64 `json:"timescale"`
	Submitted      int     `json:"jobs_submitted"`
	Queued         int     `json:"jobs_queued"`
	Live           int     `json:"jobs_live"`
	Parked         int     `json:"jobs_parked"`
	Completed      int     `json:"jobs_completed"`
	Cancelled      int     `json:"jobs_cancelled"`
	TasksWaiting   int     `json:"tasks_waiting"`
	GPUUtilization float64 `json:"gpu_utilization"`
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// maxSubmitBytes caps a POST /v1/jobs body. Far above any legitimate
// SubmitRequest, far below journalMaxLine — an accepted record must
// always replay.
const maxSubmitBytes = 1 << 20

// httpError carries a status code out of a loop closure. retryAfter
// (seconds, 0 = none) becomes a Retry-After header on shed responses.
type httpError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

// errFollower is the uniform rejection every mutating endpoint returns
// while the server is an unpromoted hot standby.
func errFollower() *httpError {
	return &httpError{code: http.StatusServiceUnavailable,
		msg: "read-only follower: POST /v1/promote to accept writes"}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush lets streaming handlers (replication) flush through the
// recorder; a no-op when the underlying writer cannot stream.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-handler request counter.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.reg.countRequest(name, rec.code)
	}
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("status", s.handleStatus))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("cancel", s.handleCancel))
	mux.HandleFunc("GET /v1/cluster", s.instrument("cluster", s.handleCluster))
	mux.HandleFunc("GET /v1/result", s.instrument("result", s.handleResult))
	mux.HandleFunc("POST /v1/pause", s.instrument("pause", s.handlePause))
	mux.HandleFunc("POST /v1/resume", s.instrument("resume", s.handleResume))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/replicate", s.instrument("replicate", s.handleReplicate))
	mux.HandleFunc("POST /v1/promote", s.instrument("promote", s.handlePromote))
	return mux
}

// parseStopOption maps the API names to learncurve.StopOption.
func parseStopOption(s string) (learncurve.StopOption, bool) {
	switch s {
	case "run-to-max":
		return learncurve.RunToMaxIterations, true
	case "optstop":
		return learncurve.OptStop, true
	case "stop-at-target":
		return learncurve.StopAtTarget, true
	}
	return 0, false
}

// buildRecord turns a validated request into a trace.Record: a
// deterministic synthetic sample seeded by the job's seed supplies
// every field the request left at its zero value.
func buildRecord(req SubmitRequest, id int64, arrival float64) (trace.Record, error) {
	seed := req.Seed
	if seed == 0 {
		// Deterministic per-id default; the SplitMix64 constant spreads
		// consecutive ids across the seed space.
		seed = id * -0x61c8864680b583eb
	}
	rec := trace.SampleRecord(rand.New(rand.NewSource(seed)), trace.GenConfig{}, id, arrival)
	rec.Seed = seed
	rec.GPUs = req.GPUs
	if req.Family != "" {
		f, ok := learncurve.ParseFamily(req.Family)
		if !ok {
			return rec, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("unknown family %q", req.Family)}
		}
		rec.Family = f
	}
	switch req.Comm {
	case "":
	case "ps":
		rec.Comm = job.ParameterServer
	case "allreduce":
		rec.Comm = job.AllReduce
	default:
		return rec, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("unknown comm %q (want ps or allreduce)", req.Comm)}
	}
	if req.Urgency != 0 {
		if req.Urgency < 0 {
			return rec, &httpError{code: http.StatusBadRequest, msg: "urgency must be positive"}
		}
		rec.Urgency = req.Urgency
	}
	if req.TargetFrac != 0 {
		if req.TargetFrac < 0 || req.TargetFrac > 1 {
			return rec, &httpError{code: http.StatusBadRequest, msg: "target_frac must be in (0, 1]"}
		}
		rec.TargetFrac = req.TargetFrac
	}
	if req.TrainDataMB != 0 {
		rec.TrainDataMB = req.TrainDataMB
	}
	if req.CommVolPSMB != 0 {
		rec.CommVolPS = req.CommVolPSMB
	}
	if req.CommVolWWMB != 0 {
		rec.CommVolWW = req.CommVolWWMB
	}
	if req.DeadlineSlackSec != 0 {
		if req.DeadlineSlackSec < 0 {
			return rec, &httpError{code: http.StatusBadRequest, msg: "deadline_slack_sec must be >= 0"}
		}
		rec.DeadlineSlackSec = req.DeadlineSlackSec
	}
	if req.StopOption != "" {
		opt, ok := parseStopOption(req.StopOption)
		if !ok {
			return rec, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("unknown stop_option %q (want run-to-max, optstop or stop-at-target)", req.StopOption)}
		}
		rec.StopOption = opt
	}
	if req.AllowDowngrade != nil {
		rec.AllowDowngrade = *req.AllowDowngrade
	}
	if err := rec.Validate(); err != nil {
		return rec, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	return rec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t0 := wallNow()
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.GPUs < 1 {
		writeErr(w, http.StatusBadRequest, "gpus must be >= 1")
		return
	}
	if req.ArrivalSec != nil && *req.ArrivalSec < 0 {
		writeErr(w, http.StatusBadRequest, "arrival_sec must be >= 0")
		return
	}
	var resp SubmitResponse
	var herr *httpError
	err := s.do(func() {
		if s.follower {
			herr = errFollower()
			return
		}
		id := s.nextID
		arrival := s.liveArrival()
		if req.ArrivalSec != nil {
			arrival = *req.ArrivalSec
			if la := s.queue.lastArrival(); arrival < la {
				herr = &httpError{code: http.StatusConflict,
					msg: fmt.Sprintf("arrival_sec %g precedes the stream tail %g (submissions must arrive in nondecreasing order)", arrival, la)}
				return
			}
			// An arrival behind the simulation clock would be admitted
			// late live but on time in a journal replay, breaking the
			// replay-parity contract — refuse it.
			if now := s.sim.Now(); arrival < now {
				herr = &httpError{code: http.StatusConflict,
					msg: fmt.Sprintf("arrival_sec %g is in the simulation past (clock at %g); omit it to let the server stamp the arrival", arrival, now)}
				return
			}
		}
		if herr = s.admit(arrival); herr != nil {
			return
		}
		rec, err := buildRecord(req, id, arrival)
		if err != nil {
			if !errors.As(err, &herr) {
				// Every rejection today is a *httpError, but don't let a
				// future buildRecord edit fall through to a bogus 201.
				herr = &httpError{code: http.StatusBadRequest, msg: err.Error()}
			}
			return
		}
		// Materialise a probe copy to validate the record end to end and
		// reject jobs the cluster can never place — the same check the
		// simulator would apply, surfaced as a 400 instead of a tally.
		var cursor job.TaskID
		probe, err := trace.Materialize(rec, &cursor)
		if err != nil {
			herr = &httpError{code: http.StatusBadRequest, msg: err.Error()}
			return
		}
		if n := probe.GPUsRequested(); n > s.totalGPUs {
			herr = &httpError{code: http.StatusBadRequest,
				msg: fmt.Sprintf("job requests %d GPUs but the cluster has %d", n, s.totalGPUs)}
			return
		}
		if err := s.commit(journalLine{Submit: &rec}, nil); err != nil {
			herr = &httpError{code: http.StatusInternalServerError, msg: err.Error()}
			return
		}
		resp = SubmitResponse{ID: id, ArrivalSec: arrival, State: "queued"}
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if herr != nil {
		if herr.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(herr.retryAfter))
		}
		writeErr(w, herr.code, "%s", herr.msg)
		return
	}
	s.reg.observeSubmit(wallNow().Sub(t0).Seconds())
	writeJSON(w, http.StatusCreated, resp)
}

// statusOf builds the JobStatus for e. Loop context.
func (s *Server) statusOf(e *jobEntry) JobStatus {
	st := JobStatus{
		ID:              e.id,
		GPUs:            e.rec.GPUs,
		Family:          e.rec.Family.String(),
		Comm:            e.rec.Comm.String(),
		Urgency:         e.rec.Urgency,
		ArrivalSec:      e.rec.ArrivalSec,
		CancelRequested: !e.done && e.cancelAt <= s.sim.Now(),
	}
	if e.done {
		st.State = job.State(e.tally.State).String()
		if e.cancelled() {
			st.State = "cancelled"
		}
		st.WaitSec = e.tally.Wait
		st.FinishSec = e.tally.Finish
		st.JCTSec = e.tally.JCT
		st.AccuracyAtDL = e.tally.Acc
		dm, am := e.tally.DeadlineMet, e.tally.AccMet
		st.DeadlineMet, st.AccuracyMet = &dm, &am
		return st
	}
	if e.simIndex >= s.sim.Consumed() {
		st.State = "queued"
		return st
	}
	j := s.sim.Job(e.simIndex)
	if j == nil {
		// Retired without a registry update — cannot happen while the
		// retire hook is installed; report the safe minimum.
		st.State = "unknown"
		return st
	}
	st.State = j.State.String()
	if j.NextRetryAt > s.sim.Now() {
		st.State = "parked"
	}
	st.ProgressIters = j.Progress
	st.MaxIterations = j.MaxIterations
	st.PlacedTasks = j.PlacedTasks
	st.TotalTasks = len(j.Tasks)
	st.DeadlineSec = j.Deadline
	st.Retries = j.Retries
	st.WaitSec = j.WaitingTime
	cl := s.sim.Cluster()
	for _, t := range j.Tasks {
		if p := cl.Lookup(t.ID.Ref()); p != nil {
			st.Placements = append(st.Placements, TaskPlacement{
				Task: int64(t.ID), Server: p.Server, Device: p.Device,
			})
		}
	}
	return st
}

func (s *Server) jobID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	var st JobStatus
	found := false
	err := s.do(func() {
		if e := s.entries[id]; e != nil {
			st, found = s.statusOf(e), true
		}
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if !found {
		writeErr(w, http.StatusNotFound, "no job %d", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	var st JobStatus
	var herr *httpError
	code := http.StatusOK
	err := s.do(func() {
		if s.follower {
			herr = errFollower()
			return
		}
		e := s.entries[id]
		if e == nil {
			herr = &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("no job %d", id)}
			return
		}
		if e.done {
			herr = &httpError{code: http.StatusConflict,
				msg: fmt.Sprintf("job %d already finalised (%s)", id, s.statusOf(e).State)}
			return
		}
		// Journal before applying, like a submission: an acknowledged
		// cancel must be on disk before the client hears about it, or a
		// crash would silently resurrect the job. Repeat DELETEs of a
		// still-pending cancel are acknowledged without a second record;
		// a cancel stamped in the future (a promoted follower's
		// replicated one, not yet due) is not pending yet, so this one
		// journals and applies now.
		if now := s.sim.Now(); !(e.cancelAt <= now) {
			c := CancelRecord{JobID: id, AtSec: now}
			if err := s.commit(journalLine{Cancel: &c}, nil); err != nil {
				herr = &httpError{code: http.StatusInternalServerError, msg: err.Error()}
				return
			}
		}
		if !e.done {
			// Not yet admitted (or mid-retry): the kill applies right
			// after admission — the record must still flow through the
			// stream to preserve replay identity.
			code = http.StatusAccepted
		}
		st = s.statusOf(e)
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if herr != nil {
		writeErr(w, herr.code, "%s", herr.msg)
		return
	}
	writeJSON(w, code, st)
}

// collectStats builds one consistent statsSnapshot. Loop context.
func (s *Server) collectStats() statsSnapshot {
	cl := s.sim.Cluster()
	parked := 0
	for _, j := range s.sim.Parked() {
		if !j.Done() {
			parked++
		}
	}
	return statsSnapshot{
		counters:  s.sim.Counters(),
		tick:      s.sim.Tick(),
		simSec:    s.sim.Now(),
		paused:    s.paused,
		timescale: s.cfg.Timescale,
		submitted: len(s.byIndex),
		queued:    len(s.byIndex) - s.sim.Consumed(),
		live:      len(s.sim.ActiveJobs()),
		parked:    parked,
		completed: s.completed,
		cancelled: s.cancelledN,
		waiting:   s.sim.NumWaiting(),
		servers:   cl.NumServers(),
		serversUp: cl.NumUp(),
		gpus:      s.totalGPUs,
		gpuUtil:   cl.MeanUtilization()[cluster.ResGPU],
		snapshots: s.snapshots,
		uptimeSec: wallNow().Sub(s.startWall).Seconds(),

		shedQueue:     s.shedQueue,
		shedLookahead: s.shedLookahead,
		maxQueued:     s.cfg.MaxQueuedJobs,
		maxLookahead:  s.cfg.MaxLookaheadSec,

		follower:      s.follower,
		repApplied:    s.repApplied,
		repLocalSeq:   s.rep.len(),
		repPrimarySeq: s.repPrimarySeq,
		repLagSec:     s.replicationLagSec(),
	}
}

// replicationLagSec is the simulated-seconds gap between the primary's
// last-seen horizon and the local clock; zero on a primary. Loop
// context.
func (s *Server) replicationLagSec() float64 {
	if !s.follower {
		return 0
	}
	if d := s.followHorizon - s.sim.Now(); d > 0 {
		return d
	}
	return 0
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var st statsSnapshot
	if err := s.do(func() { st = s.collectStats() }); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	writeJSON(w, http.StatusOK, ClusterStatus{
		Scheduler:      s.cfg.SchedulerName,
		Servers:        st.servers,
		ServersUp:      st.serversUp,
		GPUs:           st.gpus,
		Tick:           st.tick,
		SimTimeSec:     st.simSec,
		Paused:         st.paused,
		Follower:       st.follower,
		Timescale:      st.timescale,
		Submitted:      st.submitted,
		Queued:         st.queued,
		Live:           st.live,
		Parked:         st.parked,
		Completed:      st.completed,
		Cancelled:      st.cancelled,
		TasksWaiting:   st.waiting,
		GPUUtilization: st.gpuUtil,
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	var res *metrics.Result
	if err := s.do(func() { res = s.sim.Finish() }); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	s.handleSetPaused(w, true)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	s.handleSetPaused(w, false)
}

func (s *Server) handleSetPaused(w http.ResponseWriter, paused bool) {
	var herr *httpError
	err := s.do(func() {
		if s.follower {
			// A follower's pacing belongs to the primary; pausing it
			// would only grow replication lag invisibly.
			herr = errFollower()
			return
		}
		s.paused = paused
		s.anchored = false
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if herr != nil {
		writeErr(w, herr.code, "%s", herr.msg)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"paused": paused})
}

// handlePromote turns a follower into the writer. Idempotent: promoting
// a server that is already the writer reports promoted=false.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var did bool
	if err := s.do(func() { did = s.promoteLocked() }); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"promoted": did})
}

// handleReadyz is the readiness probe: 200 exactly when the event loop
// is accepting writes. Distinct from /healthz (liveness): a recovering
// or follower server is alive but must not receive traffic from a
// writer-facing load balancer.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}
	select {
	case <-s.startedc:
	default:
		// Recovery (snapshot restore + journal load) runs in New,
		// before Start: until the loop exists nothing can accept a
		// write, and this path must not block on it.
		writeJSON(w, http.StatusServiceUnavailable, readiness{Reason: "starting: recovering journal and snapshot"})
		return
	}
	var rd readiness
	err := s.do(func() {
		switch {
		case s.follower:
			rd.Reason = "follower: read-only until promoted"
		case s.stopping:
			rd.Reason = "shutting down"
		case s.runErr != nil:
			rd.Reason = "run failed: " + s.runErr.Error()
		default:
			rd.Ready = true
		}
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	code := http.StatusOK
	if !rd.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rd)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status     string  `json:"status"`
		Error      string  `json:"error,omitempty"`
		Paused     bool    `json:"paused"`
		Tick       int     `json:"tick"`
		SimTimeSec float64 `json:"sim_time_sec"`
		UptimeSec  float64 `json:"uptime_sec"`
	}
	var h health
	err := s.do(func() {
		h = health{
			Status:     "ok",
			Paused:     s.paused,
			Tick:       s.sim.Tick(),
			SimTimeSec: s.sim.Now(),
			UptimeSec:  wallNow().Sub(s.startWall).Seconds(),
		}
		if s.runErr != nil {
			h.Status, h.Error = "failed", s.runErr.Error()
		}
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var st statsSnapshot
	if err := s.do(func() { st = s.collectStats() }); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(s.renderMetrics(st)))
}
