package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mlfs/internal/metrics"
)

// Prometheus text exposition, hand-rolled on the stdlib (go.mod stays
// dependency-free). The registry holds the series that are written
// outside the event loop (request counters, latency histograms) behind
// a mutex; everything derived from simulator state is collected inside
// one event-loop call per scrape, so /metrics always reports a
// consistent cut of the run.

// latencyBuckets are the cumulative histogram bounds (seconds) shared
// by the decision- and submit-latency series: a 1–2.5–5 ladder per
// decade from 0.1 ms to 2.5 s. Adjacent bounds differ by at most 2.5×,
// so a quantile between them, estimated inside its bucket, is off by
// less than that factor. perfbench estimates its submit-handler p50
// from these bounds.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// histogram is a fixed-bucket cumulative histogram.
type histogram struct {
	counts []uint64 // per latencyBuckets bound; +Inf is implicit via total
	sum    float64
	total  uint64
}

func (h *histogram) observe(v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(latencyBuckets))
	}
	for i, le := range latencyBuckets {
		if v <= le {
			h.counts[i]++
		}
	}
	h.sum += v
	h.total++
}

// registry holds the handler-side series. The event loop and the HTTP
// handlers both write here, so access is mutex-guarded; nothing in it
// feeds simulation state.
type registry struct {
	mu       sync.Mutex
	decision histogram
	submit   histogram
	httpReqs map[string]uint64 // "handler\x00code" -> count
}

func newRegistry() *registry {
	return &registry{httpReqs: make(map[string]uint64)}
}

func (r *registry) observeDecision(sec float64) {
	r.mu.Lock()
	r.decision.observe(sec)
	r.mu.Unlock()
}

func (r *registry) observeSubmit(sec float64) {
	r.mu.Lock()
	r.submit.observe(sec)
	r.mu.Unlock()
}

func (r *registry) countRequest(handler string, code int) {
	r.mu.Lock()
	r.httpReqs[handler+"\x00"+strconv.Itoa(code)]++
	r.mu.Unlock()
}

// statsSnapshot is one consistent cut of loop-owned state, collected
// inside a single event-loop call per /metrics or /v1/cluster request.
type statsSnapshot struct {
	counters metrics.Counters

	tick      int
	simSec    float64
	paused    bool
	timescale float64

	submitted int // accepted submissions
	queued    int // accepted, not yet admitted by the simulator
	live      int // admitted, not finalised (includes parked)
	parked    int // sitting out a retry backoff
	completed int // finalised (finished, stopped, killed or cancelled)
	cancelled int // finalised via DELETE
	waiting   int // tasks queued for placement

	servers   int
	serversUp int
	gpus      int
	gpuUtil   float64

	snapshots uint64
	uptimeSec float64

	// Admission control.
	shedQueue     uint64  // 429s at the queued-jobs bound
	shedLookahead uint64  // 429s at the lookahead bound
	maxQueued     int     // configured bound (0 = unlimited)
	maxLookahead  float64 // configured bound (0 = unlimited)

	// Replication.
	follower      bool
	repApplied    uint64  // envelopes applied from the primary
	repLocalSeq   int     // envelopes in the local journal
	repPrimarySeq int     // primary's envelope count at last contact
	repLagSec     float64 // primary horizon minus local sim clock
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeSeries(b *strings.Builder, name, typ, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, fmtFloat(v))
}

func writeHistogram(b *strings.Builder, name, help string, h histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, le := range latencyBuckets {
		var c uint64
		if h.counts != nil {
			c = h.counts[i]
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, fmtFloat(le), c)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.total)
	fmt.Fprintf(b, "%s_sum %s\n", name, fmtFloat(h.sum))
	fmt.Fprintf(b, "%s_count %d\n", name, h.total)
}

// renderMetrics produces the full exposition from one stats cut plus
// the registry series. Series order is fixed and label sets are
// rendered in sorted order, so consecutive scrapes of an idle server
// are byte-identical.
func (s *Server) renderMetrics(st statsSnapshot) string {
	var b strings.Builder
	c := st.counters

	// Simulator event counters.
	writeSeries(&b, "mlfs_placements_total", "counter", "Tasks placed by scheduling rounds.", float64(c.Placements))
	writeSeries(&b, "mlfs_migrations_total", "counter", "Task migrations performed by scheduling rounds.", float64(c.Migrations))
	writeSeries(&b, "mlfs_evictions_total", "counter", "Task evictions performed by scheduling rounds.", float64(c.Evictions))
	writeSeries(&b, "mlfs_bandwidth_mb_total", "counter", "Cross-server training traffic plus migration state, in MB.", c.BandwidthMB)
	writeSeries(&b, "mlfs_migration_mb_total", "counter", "Migration component of mlfs_bandwidth_mb_total, in MB.", c.MigrationMB)
	writeSeries(&b, "mlfs_sched_rounds_total", "counter", "Scheduling rounds executed.", float64(c.SchedRounds))
	writeSeries(&b, "mlfs_sched_seconds_total", "counter", "Wall-clock seconds spent inside Schedule().", c.SchedSeconds)
	writeSeries(&b, "mlfs_skipped_rounds_total", "counter", "Rounds proven no-ops and skipped.", float64(c.SkippedRounds))
	writeSeries(&b, "mlfs_dirty_jobs_total", "counter", "Jobs delivered through the incremental round change journal.", float64(c.DirtyJobs))
	writeSeries(&b, "mlfs_overload_server_ticks_total", "counter", "Server-ticks spent overloaded.", float64(c.OverloadOccurrences))
	writeSeries(&b, "mlfs_jobs_rejected_total", "counter", "Submissions rejected at admission (larger than the cluster).", float64(c.Rejected))
	writeSeries(&b, "mlfs_jobs_truncated_total", "counter", "Jobs force-finished at the simulation horizon.", float64(c.Truncated))

	// Fault-injection counters (all zero when -mttf is unset).
	writeSeries(&b, "mlfs_server_failures_total", "counter", "Servers taken down by the fault process.", float64(c.ServerFailures))
	writeSeries(&b, "mlfs_server_repairs_total", "counter", "Servers returned to service.", float64(c.ServerRepairs))
	writeSeries(&b, "mlfs_failure_evictions_total", "counter", "Task placements lost to server failures.", float64(c.FailureEvictions))
	writeSeries(&b, "mlfs_work_lost_iterations_total", "counter", "Iterations rolled back to the last checkpoint.", c.WorkLostIters)
	writeSeries(&b, "mlfs_job_restarts_total", "counter", "Jobs re-queued after losing tasks to a failure.", float64(c.JobRestarts))
	writeSeries(&b, "mlfs_jobs_killed_total", "counter", "Jobs abandoned after exhausting their retry budget.", float64(c.JobsKilled))

	// Service counters.
	writeSeries(&b, "mlfs_submissions_total", "counter", "Submissions accepted through POST /v1/jobs.", float64(st.submitted))
	writeSeries(&b, "mlfs_jobs_completed_total", "counter", "Jobs finalised (finished, stopped, killed or cancelled).", float64(st.completed))
	writeSeries(&b, "mlfs_cancellations_total", "counter", "Jobs finalised through DELETE /v1/jobs.", float64(st.cancelled))
	writeSeries(&b, "mlfs_snapshots_written_total", "counter", "Crash-consistent snapshots written.", float64(st.snapshots))
	writeSeries(&b, "mlfs_ticks_total", "counter", "Simulator ticks executed (restores included).", float64(st.tick))

	// Gauges.
	writeSeries(&b, "mlfs_sim_time_seconds", "gauge", "Current simulation time.", st.simSec)
	writeSeries(&b, "mlfs_jobs_queued", "gauge", "Submissions accepted but not yet admitted by the simulator.", float64(st.queued))
	writeSeries(&b, "mlfs_jobs_live", "gauge", "Admitted jobs not yet finalised (parked included).", float64(st.live))
	writeSeries(&b, "mlfs_jobs_parked", "gauge", "Jobs sitting out a post-failure retry backoff.", float64(st.parked))
	writeSeries(&b, "mlfs_tasks_waiting", "gauge", "Tasks queued for placement.", float64(st.waiting))
	writeSeries(&b, "mlfs_servers_total", "gauge", "Servers in the cluster.", float64(st.servers))
	writeSeries(&b, "mlfs_servers_up", "gauge", "Servers currently in service.", float64(st.serversUp))
	writeSeries(&b, "mlfs_gpus_total", "gauge", "GPUs in the cluster.", float64(st.gpus))
	writeSeries(&b, "mlfs_gpu_utilization", "gauge", "Mean GPU utilisation across servers (0-1).", st.gpuUtil)
	paused := 0.0
	if st.paused {
		paused = 1
	}
	writeSeries(&b, "mlfs_paused", "gauge", "1 while the event loop is paused, else 0.", paused)
	writeSeries(&b, "mlfs_timescale", "gauge", "Simulated seconds per wall second (0 = as fast as possible).", st.timescale)
	writeSeries(&b, "mlfs_uptime_seconds", "gauge", "Wall seconds since the process started serving.", st.uptimeSec)

	// Admission control: the shed counters and the bounds they enforce
	// (a bound of 0 means unlimited). mlfs_jobs_queued above is the
	// gauge the queue bound caps.
	fmt.Fprintf(&b, "# HELP mlfs_load_shed_total Submissions shed with 429 at admission, by exceeded bound.\n# TYPE mlfs_load_shed_total counter\n")
	fmt.Fprintf(&b, "mlfs_load_shed_total{reason=\"queue\"} %d\n", st.shedQueue)
	fmt.Fprintf(&b, "mlfs_load_shed_total{reason=\"lookahead\"} %d\n", st.shedLookahead)
	writeSeries(&b, "mlfs_admission_queue_limit", "gauge", "Configured bound on submissions awaiting admission (0 = unlimited).", float64(st.maxQueued))
	writeSeries(&b, "mlfs_admission_lookahead_seconds", "gauge", "Configured bound on sim-seconds of arrival lookahead (0 = unlimited).", st.maxLookahead)

	// Replication.
	follower := 0.0
	if st.follower {
		follower = 1
	}
	writeSeries(&b, "mlfs_follower", "gauge", "1 while this server is an unpromoted hot-standby follower, else 0.", follower)
	writeSeries(&b, "mlfs_replication_applied_total", "counter", "Journal envelopes applied from the primary's replication stream.", float64(st.repApplied))
	writeSeries(&b, "mlfs_replication_local_seq", "gauge", "Journal envelopes held locally (the replication sequence cursor).", float64(st.repLocalSeq))
	lagRecords := st.repPrimarySeq - st.repLocalSeq
	if lagRecords < 0 || !st.follower {
		lagRecords = 0
	}
	writeSeries(&b, "mlfs_replication_lag_records", "gauge", "Envelopes the primary holds that this follower has not applied.", float64(lagRecords))
	writeSeries(&b, "mlfs_replication_lag_seconds", "gauge", "Simulated seconds between the primary's horizon and the local clock.", st.repLagSec)

	// Handler-side series.
	s.reg.mu.Lock()
	writeHistogram(&b, "mlfs_decision_latency_seconds", "Scheduler decision latency per round (Schedule() wall time).", s.reg.decision)
	writeHistogram(&b, "mlfs_submit_latency_seconds", "POST /v1/jobs latency, request receipt to loop acknowledgement.", s.reg.submit)
	fmt.Fprintf(&b, "# HELP mlfs_http_requests_total HTTP requests served, by handler and status code.\n# TYPE mlfs_http_requests_total counter\n")
	keys := make([]string, 0, len(s.reg.httpReqs))
	for k := range s.reg.httpReqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		handler, code, _ := strings.Cut(k, "\x00")
		fmt.Fprintf(&b, "mlfs_http_requests_total{handler=%q,code=%q} %d\n", handler, code, s.reg.httpReqs[k])
	}
	s.reg.mu.Unlock()
	return b.String()
}
