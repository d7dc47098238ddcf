package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mlfs"
	"mlfs/internal/cluster"
	"mlfs/internal/core"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
	"mlfs/internal/serve"
	"mlfs/internal/trace"
)

// servedSpec fixes the served workload: mlf-h on the paper-sim cluster
// behind mlfs-serve's HTTP API, fed a Philly-density stream at a fixed
// timescale, with the fsync'd journal and periodic snapshots on.
type servedSpec struct {
	cluster       cluster.Config
	warmupJobs    int
	jobs          int     // timed submissions
	submitRate    float64 // mean submissions per wall second
	readRate      float64 // status reads per wall second
	timescale     float64 // simulated seconds per wall second
	snapshotEvery int     // ticks
	// lead is how far ahead of the server's clock a submission is sent
	// (its arrival stamp lies that far in the simulated future), so a
	// client that runs a little late never stamps the simulated past.
	lead time.Duration
}

const (
	servedSetupReps = 9
	// benchServeSubmitsPerMin is mlfs-serve's measured submission
	// capacity (results/BENCH_serve.json: mlfs-loadgen replay, one
	// connection, the event loop paused, full mlfs on paper-real).
	benchServeSubmitsPerMin = 139_234
	// servedCapacityShare is the share of that capacity the measured
	// phase offers as submissions. The capacity run neither simulated
	// nor fsync'd; here the same loop also runs the simulation at the
	// workload's timescale and every submission waits for an fsync, and
	// the open loop is meant to measure latency below saturation.
	servedCapacityShare = 1.0 / 40
	servedSubmitRate    = benchServeSubmitsPerMin / 60.0 * servedCapacityShare // 58.0 per second
	// readsPerSubmit is how many status reads the client sends per
	// submission. It is an assumption, not a measured client mix;
	// README.md gives the sensitivity of the figures to it.
	readsPerSubmit = 3
	// servedWarmupSec is the wall length of the warm-up stream.
	servedWarmupSec = 5
	// scrapeEvery is the /metrics period of a traced phase.
	scrapeEvery = 500 * time.Millisecond
)

// servedSpecFor sizes the workload for a run of the given length. An
// untraced run measures one phase of twice that length: the cost of a
// scheduling round follows the live-job count, which follows the
// stream's daily arrival cycle (16 s of wall time at this timescale),
// and over 20 s alone the spread of decision_p50_ms between seeds was
// about nine times that over 40 s (README.md). A traced run measures two
// phases (untraced and traced) of the requested length.
func servedSpecFor(seconds int, traced bool) servedSpec {
	cl := cluster.PaperSimConfig()
	phase := 2 * seconds
	if traced {
		phase = seconds
	}
	return servedSpec{
		cluster:    cl,
		warmupJobs: int(math.Round(servedSubmitRate * servedWarmupSec)),
		jobs:       int(math.Round(servedSubmitRate * float64(phase))),
		submitRate: servedSubmitRate,
		readRate:   readsPerSubmit * servedSubmitRate,
		// At this timescale a Philly-density stream arrives at
		// submitRate submissions per wall second.
		timescale:     servedSubmitRate * phillyWindow(1, cl.TotalGPUs()),
		snapshotEvery: 20,
		lead:          2 * time.Second,
	}
}

// lanes is the client's connection count: one per CPU.
func (sp servedSpec) lanes() int { return runtime.NumCPU() }

// roundProbe times the rounds of a timedMLFH scheduler while it is on.
type roundProbe struct {
	mu     sync.Mutex
	on     bool
	rounds probedRounds
	rec    *recorder
}

// probedRounds is what a probe kept, in round order.
type probedRounds struct {
	wall   []float64 // seconds per round: the latency the loop saw
	cpu    []float64 // CPU seconds of the scheduling thread per round
	useful int       // rounds that placed, migrated or evicted anything
}

func (p *roundProbe) start(rec *recorder) {
	p.mu.Lock()
	p.on, p.rounds, p.rec = true, probedRounds{}, rec
	p.mu.Unlock()
}

func (p *roundProbe) stop() probedRounds {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.on = false
	return p.rounds
}

// timedMLFH is MLF-H with its Schedule timed. Embedding the concrete
// *core.MLFH keeps every method the simulator and the snapshot layer
// look for, so the served run decides exactly as plain MLF-H does.
type timedMLFH struct {
	*core.MLFH
	probe *roundProbe
}

func (t *timedMLFH) Schedule(ctx *sched.Context) {
	runtime.LockOSThread() // both CPU-clock readings must come from one thread
	c0, t0 := threadCPU(), time.Now()
	t.MLFH.Schedule(ctx)
	t1, c1 := time.Now(), threadCPU()
	runtime.UnlockOSThread()
	p := t.probe
	p.mu.Lock()
	if p.on {
		r := &p.rounds
		r.wall = append(r.wall, t1.Sub(t0).Seconds())
		r.cpu = append(r.cpu, (c1 - c0).Seconds())
		if ctx.Placements+ctx.Migrations+ctx.Evictions > 0 {
			r.useful++
		}
		if p.rec != nil {
			p.rec.add(span{Name: "sched.round", Req: int64(len(r.wall)),
				Start: int64(t0.Sub(p.rec.origin)), End: int64(t1.Sub(p.rec.origin))})
		}
	}
	p.mu.Unlock()
}

// config is the service configuration over the files in dir. probe nil
// gives plain MLF-H (the drain and oracle runs).
func (sp servedSpec) config(dir string, timescale float64, seed int64, probe *roundProbe) serve.Config {
	return serve.Config{
		NewScheduler: func() (serve.Scheduler, error) {
			s, err := mlfs.NewScheduler("mlf-h", mlfs.SchedulerOptions{Seed: seed})
			if err != nil || probe == nil {
				return s, err
			}
			h, ok := s.(*core.MLFH)
			if !ok {
				return nil, fmt.Errorf("mlf-h is a %T, not *core.MLFH", s)
			}
			return &timedMLFH{MLFH: h, probe: probe}, nil
		},
		SchedulerName: "mlf-h",
		Cluster:       sp.cluster,
		Timescale:     timescale,
		SnapshotEvery: sp.snapshotEvery,
		SnapshotPath:  filepath.Join(dir, "snapshot"),
		JournalPath:   filepath.Join(dir, "journal"),
	}
}

// host is one running server on a loopback listener.
type host struct {
	srv    *serve.Server
	url    string
	served chan error
}

// startServer recovers a server from cfg's files, starts its loop and
// serves it on a fresh loopback port. It returns the time serve.New
// (the recovery) took.
func startServer(cfg serve.Config) (*host, time.Duration, error) {
	t0 := time.Now()
	s, err := serve.New(cfg)
	recov := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Start()
		s.Kill()
		return nil, 0, err
	}
	s.Start()
	h := &host{srv: s, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { h.served <- s.Serve(ln) }()
	return h, recov, nil
}

// stop shuts the server down gracefully (final snapshot included).
func (h *host) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := h.srv.Stop(ctx)
	if serr := <-h.served; err == nil {
		err = serr
	}
	return err
}

// kill stops the server abruptly, leaving its files as they are.
func (h *host) kill() {
	h.srv.Kill()
	<-h.served
}

// control is the client for requests outside the measured phase.
var control = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 60 * time.Second}

func getJSON(url string, out any) error {
	resp, err := control.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getText(url string) (string, error) {
	resp, err := control.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), err
}

// waitReady polls /readyz until the server accepts writes.
func waitReady(h *host) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := control.Get(h.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready after 60s", h.url)
}

// clusterView is the part of GET /v1/cluster the benchmark reads.
type clusterView struct {
	SimTimeSec float64 `json:"sim_time_sec"`
	Submitted  int     `json:"jobs_submitted"`
	Completed  int     `json:"jobs_completed"`
}

// servedRun carries one invocation of the served workload.
type servedRun struct {
	rc      runConfig
	sp      servedSpec
	records []trace.Record // warm-up then timed, on the trace's clock
	warmDir string
	acked   []int64 // ids acknowledged during the warm-up
}

// phase is what one timed phase measured.
type phase struct {
	dir       string
	results   []reqResult
	seconds   float64
	cpuSec    float64 // process CPU time over the phase, server and client
	rounds    probedRounds
	before    string // /metrics at the start
	after     string // /metrics at the end
	simStart  float64
	origin    time.Time
	gc        gcStats
	rssMB     float64
	heapMB    float64
	journalB  int64 // journal growth
	snapshotB int64 // snapshot size at the end
}

func runServed(rc runConfig) (*outcome, error) {
	sp := servedSpecFor(rc.seconds, rc.traced)
	r := &servedRun{rc: rc, sp: sp, warmDir: filepath.Join(rc.work, "warm")}
	var nextBusy time.Duration
	r.records, nextBusy = r.stream()
	if err := r.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Set-up: recover from the warm-up's journal and snapshot until the
	// server is ready, on a fresh copy each time; the last one serves the
	// measured phase. A set-up is timed by the process's CPU clock: the
	// process does nothing else meanwhile, and on a 2-vCPU guest losing
	// 10-20 % of its time to other guests, the wall time of some
	// recoveries doubled.
	probe := &roundProbe{}
	setups := make([]float64, servedSetupReps)
	recovers := make([]float64, servedSetupReps)
	readies := make([]float64, servedSetupReps)
	var h *host
	var dir string
	for i := range setups {
		dir = filepath.Join(rc.work, fmt.Sprintf("run%d", i))
		if err := copyFiles(r.warmDir, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		c0, t0 := cpuSeconds(), time.Now()
		hh, recov, err := startServer(sp.config(dir, sp.timescale, rc.seed, probe))
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		if err := waitReady(hh); err != nil {
			hh.kill()
			return nil, err
		}
		setups[i] = cpuSeconds() - c0
		recovers[i] = recov.Seconds()
		readies[i] = time.Since(t0).Seconds() - recovers[i]
		if i < servedSetupReps-1 {
			hh.kill()
			continue
		}
		h = hh
	}
	ph, err := r.measure(h, dir, probe, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}, samples: map[string]quantile{}, params: map[string]any{}}
	if rc.traced {
		// The traced phase replays the same warm-up state on another
		// copy; the untraced phase above only supplies the throughput
		// the tracing overhead is measured against.
		plain := ph
		tdir := filepath.Join(rc.work, "traced")
		if err := copyFiles(r.warmDir, tdir); err != nil {
			return nil, err
		}
		th, _, err := startServer(sp.config(tdir, sp.timescale, rc.seed, probe))
		if err != nil {
			return nil, err
		}
		if err := waitReady(th); err != nil {
			th.kill()
			return nil, err
		}
		rec := newRecorder()
		if ph, err = r.measure(th, tdir, probe, rec); err != nil {
			return nil, err
		}
		out.spans = rec
		thr := func(p *phase) float64 { return float64(countOK(p.results, anyOp)) / p.cpuSec }
		out.values["tracing.overhead_pct"] = 100 * (thr(plain) - thr(ph)) / thr(plain)
	}

	res, err := r.verify(ph, out)
	if err != nil {
		return nil, err
	}
	r.report(out, ph, res, nextBusy, setups, recovers, readies)
	return out, nil
}

// stream generates the submissions — warm-up then timed records of one
// seeded Philly-density stream, arrivals on the trace's own clock — and
// times the source's Next calls.
func (r *servedRun) stream() (recs []trace.Record, busy time.Duration) {
	sp := r.sp
	n := sp.warmupJobs + sp.jobs
	src := mlfs.SyntheticPhillySource(n, r.rc.seed, phillyWindow(n, sp.cluster.TotalGPUs()))
	for {
		t0 := time.Now()
		rec, ok := src.Next()
		busy += time.Since(t0)
		if !ok {
			return recs, busy
		}
		recs = append(recs, rec)
	}
}

// stamp lays a slice of the stream onto a server whose simulation clock
// reads simNow at the phase origin. Arrivals keep their trace spacing,
// shifted so that the first lies lead ahead of the server's clock; each
// record is sent when the server's clock is lead short of its stamp.
func (r *servedRun) stamp(recs []trace.Record, simNow float64) ([]trace.Record, []time.Duration) {
	leadSim := r.sp.lead.Seconds() * r.sp.timescale
	shift := simNow + leadSim - recs[0].ArrivalSec
	out := make([]trace.Record, len(recs))
	at := make([]time.Duration, len(recs))
	for i, rec := range recs {
		at[i] = time.Duration((rec.ArrivalSec - recs[0].ArrivalSec) / r.sp.timescale * float64(time.Second))
		rec.ArrivalSec += shift
		out[i] = rec
	}
	return out, at
}

// warmup runs a fresh server through the warm-up submissions at the
// workload's timescale and stops it, leaving a journal and a snapshot
// of a cluster in its steady state.
func (r *servedRun) warmup() error {
	if err := os.MkdirAll(r.warmDir, 0o755); err != nil {
		return err
	}
	h, _, err := startServer(r.sp.config(r.warmDir, r.sp.timescale, r.rc.seed, nil))
	if err != nil {
		return err
	}
	if err := waitReady(h); err != nil {
		h.kill()
		return err
	}
	var cv clusterView
	if err := getJSON(h.url+"/v1/cluster", &cv); err != nil {
		h.kill()
		return err
	}
	origin := time.Now()
	recs, at := r.stamp(r.records[:r.sp.warmupJobs], cv.SimTimeSec)
	c := &phaseClient{base: h.url, records: recs, seed: r.rc.seed}
	res := c.run(buildSchedule(at, 0, 0, 1), origin)
	// Let the server's clock pass the last warm-up arrival, so the
	// measured phase starts with every warm-up job admitted.
	time.Sleep(r.sp.lead + 500*time.Millisecond)
	if err := h.stop(); err != nil {
		return err
	}
	if n := countOK(res, opSubmit); n != len(recs) {
		b, _ := json.Marshal(tallies(res))
		return fmt.Errorf("%d of %d warm-up submissions accepted: %s", n, len(recs), b)
	}
	r.acked = c.acked
	return nil
}

// measure runs one timed phase against h and stops h gracefully.
func (r *servedRun) measure(h *host, dir string, probe *roundProbe, rec *recorder) (*phase, error) {
	p := &phase{dir: dir}
	var err error
	if p.before, err = getText(h.url + "/metrics"); err != nil {
		h.kill()
		return nil, err
	}
	journal0 := fileSize(filepath.Join(dir, "journal"))
	var cv clusterView
	if err := getJSON(h.url+"/v1/cluster", &cv); err != nil {
		h.kill()
		return nil, err
	}
	p.origin, p.simStart = time.Now(), cv.SimTimeSec
	recs, at := r.stamp(r.records[r.sp.warmupJobs:], p.simStart)
	every := time.Duration(0)
	if rec != nil {
		every = scrapeEvery
	}
	lanes := buildSchedule(at, r.sp.readRate, every, r.sp.lanes())
	c := &phaseClient{base: h.url, records: recs, seed: r.rc.seed, rec: rec, acked: append([]int64(nil), r.acked...)}

	mem := watchMemory(memPeriod)
	gc0 := readGC()
	probe.start(rec)
	cpu0 := cpuSeconds()
	p.results = c.run(lanes, p.origin)
	p.seconds = time.Since(p.origin).Seconds()
	p.cpuSec = cpuSeconds() - cpu0
	p.rounds = probe.stop()
	p.gc = readGC().since(gc0)
	p.rssMB, p.heapMB = mem.stop()

	p.after, err = getText(h.url + "/metrics")
	p.snapshotB = fileSize(filepath.Join(dir, "snapshot"))
	p.journalB = fileSize(filepath.Join(dir, "journal")) - journal0
	if serr := h.stop(); err == nil {
		err = serr
	}
	return p, err
}

// verify drains the phase's server state in as-fast-as-possible mode and
// checks the final /v1/result against the batch oracle over the
// stitched journal (warm-up plus measured submissions): the comparison
// `make serve-smoke` makes.
func (r *servedRun) verify(p *phase, out *outcome) (*metrics.Result, error) {
	cfg := r.sp.config(p.dir, 0, r.rc.seed, nil)
	h, _, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	var cv clusterView
	deadline := time.Now().Add(120 * time.Second)
	for {
		if err := getJSON(h.url+"/v1/cluster", &cv); err != nil {
			h.kill()
			return nil, err
		}
		if cv.Completed == cv.Submitted {
			break
		}
		if time.Now().After(deadline) {
			h.kill()
			return nil, fmt.Errorf("drain: %d of %d jobs finished after 120s", cv.Completed, cv.Submitted)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var live metrics.Result
	if err := getJSON(h.url+"/v1/result", &live); err != nil {
		h.kill()
		return nil, err
	}
	if err := h.stop(); err != nil {
		return nil, err
	}
	recs, cancels, err := serve.ReadJournal(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	if want := r.sp.warmupJobs + countOK(p.results, opSubmit); len(recs) != want || len(cancels) != 0 {
		out.fail(fmt.Errorf("journal holds %d submissions and %d cancels, want %d and 0", len(recs), len(cancels), want))
	}
	oracle, err := serve.Oracle(cfg, recs, cancels)
	if err != nil {
		return nil, err
	}
	got := live
	got.Counters.SimulatedSec, oracle.Counters.SimulatedSec = 0, 0
	if !sameResult(&got, oracle) {
		out.fail(fmt.Errorf("served result diverged from the batch oracle over its journal"))
	}
	return &live, nil
}

// report fills the outcome from the measured phase.
func (r *servedRun) report(out *outcome, p *phase, res *metrics.Result, nextBusy time.Duration,
	setups, recovers, readies []float64) {
	sp, v := r.sp, out.values
	var submits, reads, late []float64
	good := 0
	sort.SliceStable(p.results, func(i, j int) bool { return p.results[i].sched < p.results[j].sched })
	for _, q := range p.results {
		late = append(late, q.late())
		if q.kind == opScrape {
			continue
		}
		out.attempted++
		if q.class != classOK {
			out.failed++
			continue
		}
		if q.latency() <= latencyLimitMs/1000 {
			good++
		}
		if q.kind == opSubmit {
			submits = append(submits, q.latency())
		} else {
			reads = append(reads, q.latency())
		}
	}
	out.params["requests"] = tallies(p.results)
	out.params["cpu_s"] = p.cpuSec
	out.params["ok_per_wall_s"] = float64(len(submits)+len(reads)) / p.seconds
	if out.failed > 0 {
		b, _ := json.Marshal(tallies(p.results))
		out.fail(fmt.Errorf("%d requests failed: %s", out.failed, b))
	}

	v["setup_s"] = median(setups)
	// Per CPU second of the process, not per wall second: the open loop
	// fixes the offered rate, so a wall rate would only restate it. The
	// client shares the process, at a cost per request that stays put.
	v["throughput_per_s"] = float64(len(submits)+len(reads)) / p.cpuSec
	v["peak_rss_mb"] = p.rssMB
	v["avg_jct_min"] = res.AvgJCTSec / 60
	v["deadline_ratio"] = res.DeadlineRatio
	// CPU time of the scheduling thread, not wall time: the loop shares
	// two vCPUs with the HTTP side, the client and other guests, and a
	// round's wall time tracked those more than the scheduler's work.
	out.quantiles("decision", p.rounds.cpu)
	out.quantiles("submit", submits)
	out.quantiles("read", reads)
	v["goodput_per_s"] = float64(good) / p.seconds
	if !r.rc.traced {
		return
	}

	delta := func(series string) float64 {
		a, _ := promValue(p.after, series)
		b, _ := promValue(p.before, series)
		return a - b
	}
	v["philly.records"] = float64(len(r.records))
	v["philly.next_busy_s"] = nextBusy.Seconds()
	v["sim.steps"] = delta("mlfs_ticks_total")
	v["sim.sim_days"] = delta("mlfs_sim_time_seconds") / 86400
	for _, name := range []string{"sim.step_busy_s", "sim.self_s", "sim.step_p50_us", "sim.step_p99_us",
		"sim.allocs_per_step", "sim.alloc_kb_per_step", "sim.finish_ms"} {
		v[name] = 0 // the steps run inside the server, out of the client's reach
	}
	v["sched.rounds"] = float64(len(p.rounds.wall))
	v["sched.busy_s"] = sum(p.rounds.cpu)
	v["sched.skipped_rounds"] = delta("mlfs_skipped_rounds_total")
	v["sched.dirty_jobs"] = delta("mlfs_dirty_jobs_total")
	v["sched.placements"] = delta("mlfs_placements_total")
	v["sched.migrations"] = delta("mlfs_migrations_total")
	v["sched.evictions"] = delta("mlfs_evictions_total")
	v["sched.useful_round_ratio"] = float64(p.rounds.useful) / float64(max(1, len(p.rounds.wall)))
	out.mlfrl(false, nil)
	v["cluster.overload_server_ticks"] = delta("mlfs_overload_server_ticks_total")
	v["cluster.bandwidth_gb"] = delta("mlfs_bandwidth_mb_total") / 1024
	v["cluster.migration_gb"] = delta("mlfs_migration_mb_total") / 1024

	v["serve.recover_s"] = median(recovers)
	v["serve.ready_s"] = median(readies)
	v["serve.ticks"] = delta("mlfs_ticks_total")
	v["serve.sched_busy_share"] = sum(p.rounds.wall) / p.seconds
	v["serve.round_p50_ms"] = percentile(append([]float64(nil), p.rounds.wall...), 50).Value * 1000
	lag := 0.0
	var lags []float64
	for _, q := range p.results {
		if q.kind == opScrape && q.class == classOK {
			want := p.simStart + q.sent.Seconds()*sp.timescale
			lags = append(lags, (want-q.simTime)/sp.timescale)
			lag = max(lag, lags[len(lags)-1])
		}
	}
	out.params["sim_lag_s"] = lags
	v["serve.sim_lag_s"] = lag
	les, b0, err0 := promHistogram(p.before, "mlfs_submit_latency_seconds")
	_, b1, err1 := promHistogram(p.after, "mlfs_submit_latency_seconds")
	if err0 != nil || err1 != nil {
		out.fail(fmt.Errorf("submit latency histogram: %v %v", err0, err1))
	} else {
		v["serve.submit_handler_p50_ms"] = histQuantile(les, b0, b1, 0.5) * 1000
	}
	v["serve.journal_bytes_per_submit"] = float64(p.journalB) / float64(max(1, len(submits)))
	v["serve.snapshots"] = delta("mlfs_snapshots_written_total")
	v["serve.snapshot_kb"] = float64(p.snapshotB) / 1024

	v["loadgen.sent"] = float64(out.attempted)
	v["loadgen.failed"] = float64(out.failed)
	q := percentile(late, 99)
	v["loadgen.late_p99_ms"] = q.Value * 1000
	out.samples["loadgen.late_p99"] = q

	v["go.gc_cycles"] = float64(p.gc.cycles)
	v["go.gc_pause_ms"] = float64(p.gc.pauseNs) / 1e6
	v["go.heap_peak_mb"] = p.heapMB
}

// anyOp makes countOK count submissions and reads alike.
const anyOp opKind = 255

// countOK counts successful requests of kind k (scrapes never count).
func countOK(rs []reqResult, k opKind) int {
	n := 0
	for _, r := range rs {
		if r.class == classOK && r.kind != opScrape && (k == anyOp || r.kind == k) {
			n++
		}
	}
	return n
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// copyFiles copies the regular files of src into a new directory dst.
func copyFiles(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
