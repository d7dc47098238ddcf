package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"mlfs"
	"mlfs/internal/cluster"
	"mlfs/internal/core/mlfrl"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/sim"
	"mlfs/internal/trace"
)

// phillyJobSpacingSec is the real Philly trace's mean gap between
// submissions — 117,325 jobs over 18 weeks on 2474 GPUs.
const phillyJobSpacingSec = 18 * 7 * 24 * 3600.0 / 117_325

// phillyWindow is the arrival window that reproduces Philly's
// submission density for jobs submissions on a cluster of gpus GPUs.
func phillyWindow(jobs, gpus int) float64 {
	return float64(jobs) * phillyJobSpacingSec * 2474 / float64(gpus)
}

// batchSpec fixes one batch workload.
type batchSpec struct {
	scheduler string
	cluster   cluster.Config
	jobs      int     // submissions per simulation
	windowSec float64 // arrival window of the synthetic Philly stream
	// horizonSec is the simulation horizon (sim.Config.MaxSimSec); jobs
	// still live there are truncated. 0 keeps the simulator's default,
	// which every job finishes well inside.
	horizonSec float64
	// runs is how many independent simulations one invocation measures,
	// each on its own stream seeded from the run seed; their results are
	// pooled. One seed's workload can cost twice another's of the same
	// size under MLFS, so pooling several keeps a run's figures steady.
	runs int
}

// subSeed is the workload and policy seed of simulation i of a run.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// Run-length calibration, so that one invocation measures about the
// requested seconds on the reference machine: philly-fifo grows its job
// count; paper-mlfs keeps each simulation's size (and with it the share
// of rounds past MLF-RL's imitation phase) and adds simulations.
const (
	phillyFIFOJobsPerSec = 3000
	paperMLFSJobs        = 375
	paperMLFSSecPerRun   = 3
	// paperMLFSSparsity spreads arrivals this many times wider than
	// mlfs.DurationForCluster's pressure calibration; see README.md.
	paperMLFSSparsity = 6
)

func phillyFIFOSpec(seconds int) batchSpec {
	cl := cluster.Config{
		Servers: 550, GPUsPerServer: 4,
		GPUCapacity: 1, CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200,
	}
	jobs := phillyFIFOJobsPerSec * seconds
	return batchSpec{
		scheduler: "fifo", cluster: cl, jobs: jobs,
		windowSec: phillyWindow(jobs, cl.TotalGPUs()), runs: 1,
	}
}

func paperMLFSSpec(seconds int) batchSpec {
	cl := cluster.PaperRealConfig()
	window := paperMLFSSparsity * mlfs.DurationForCluster(paperMLFSJobs, cl.TotalGPUs())
	return batchSpec{
		scheduler: "mlfs", cluster: cl, jobs: paperMLFSJobs,
		windowSec: window, horizonSec: window, runs: max(1, seconds/paperMLFSSecPerRun),
	}
}

// countingSource wraps the workload stream: it counts records and, in
// a traced pass, times each Next as a philly.next span under the step
// that pulled it.
type countingSource struct {
	trace.Source
	n      int
	rec    *recorder
	parent *int64 // id of the open sim.step span
	step   *int64
	busy   time.Duration
}

func (c *countingSource) Next() (trace.Record, bool) {
	if c.rec == nil {
		r, ok := c.Source.Next()
		if ok {
			c.n++
		}
		return r, ok
	}
	t0 := time.Now()
	r, ok := c.Source.Next()
	t1 := time.Now()
	c.busy += t1.Sub(t0)
	c.rec.add(span{Name: "philly.next", Parent: *c.parent, Req: *c.step,
		Start: int64(t0.Sub(c.rec.origin)), End: int64(t1.Sub(c.rec.origin))})
	if ok {
		c.n++
	}
	return r, ok
}

// newBatchSim builds the workload's simulator exactly as a library user
// would: scheduler by name, streaming Philly source, every worker pool
// at its default width.
func newBatchSim(spec batchSpec, seed int64) (*sim.Simulator, *countingSource, error) {
	s, err := mlfs.NewScheduler(spec.scheduler, mlfs.SchedulerOptions{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	src := &countingSource{Source: mlfs.SyntheticPhillySource(spec.jobs, seed, spec.windowSec)}
	sm, err := sim.New(sim.Config{
		Cluster:   spec.cluster,
		Source:    src,
		Scheduler: s,
		MaxSimSec: spec.horizonSec,
	})
	if err != nil {
		return nil, nil, err
	}
	return sm, src, nil
}

// batchPass is what one run of the simulator to completion measured.
type batchPass struct {
	res     *metrics.Result
	hostSec float64
	cpuSec  float64   // process CPU time over the pass, every thread
	steps   []float64 // host seconds per RunStep
	rounds  []float64 // host seconds per scheduling round
	submits []float64 // per admitted job: host seconds of the step that admitted it
	reads   []float64 // host seconds per job-status read, kept out of hostSec
	readSec float64   // their sum
	useful  int       // rounds that placed, migrated or evicted anything
	retired int
	// completed counts, from the retire hook alone, the jobs that
	// retired in a step the simulation went on from: neither rejected at
	// admission nor cut off by the horizon, which happens in the last
	// step.
	completed int
	records   int
	nextBusy  time.Duration
	finishSec float64
	gc        gcStats
	rssMB     float64
	heapMB    float64
}

// runPass drives sm to the end of the run. With rec set it records a
// sim.step span around every RunStep, sched.round and philly.next spans
// inside it, a batch.read span per status read and a sim.finish span.
// After each step it reads the status of one live job, the counterpart
// of the service's status endpoint; the reads are timed on their own
// and their time is not part of hostSec, since a batch run does not
// make them.
func runPass(sm *sim.Simulator, src *countingSource, seed int64, rec *recorder) (*batchPass, error) {
	defer sm.Close()
	p := &batchPass{}
	var stepID, step int64
	ns := func(t time.Time) int64 { return int64(t.Sub(rec.origin)) }
	sm.SetRoundTimingHook(func(sec float64) {
		p.rounds = append(p.rounds, sec)
		if rec != nil {
			end := time.Now()
			rec.add(span{Name: "sched.round", Parent: stepID, Req: step,
				Start: ns(end) - int64(sec*1e9), End: ns(end)})
		}
	})
	stepRetired := 0 // retirements in the current step, rejections aside
	gpus := sm.Cluster().NumGPUs()
	sm.SetRetireHook(func(j *job.Job) {
		p.retired++
		if j.GPUsRequested() <= gpus {
			stepRetired++
		}
	})
	src.rec, src.parent, src.step = rec, &stepID, &step
	rng := rand.New(rand.NewSource(seed))
	var prev metrics.Counters

	mem := watchMemory(memPeriod)
	gc0 := readGC()
	start, cpu0 := time.Now(), cpuSeconds()
	for {
		step++
		if rec != nil {
			stepID = rec.reserve()
		}
		consumed, rounds := sm.Consumed(), len(p.rounds)
		stepRetired = 0
		t0 := time.Now()
		more, err := sm.RunStep()
		t1 := time.Now()
		if err != nil {
			mem.stop()
			return nil, err
		}
		if more {
			p.completed += stepRetired
		}
		d := t1.Sub(t0).Seconds()
		p.steps = append(p.steps, d)
		if rec != nil {
			rec.add(span{Name: "sim.step", ID: stepID, Req: step, Start: ns(t0), End: ns(t1)})
		}
		for k := sm.Consumed() - consumed; k > 0; k-- {
			p.submits = append(p.submits, d)
		}
		if c := sm.Counters(); len(p.rounds) > rounds {
			if c.Placements+c.Migrations+c.Evictions > prev.Placements+prev.Migrations+prev.Evictions {
				p.useful++
			}
			prev = c
		}
		if live := sm.ActiveJobs(); len(live) > 0 {
			id := live[rng.Intn(len(live))].SimIndex
			r0 := time.Now()
			readSink += readStatus(sm, id)
			r1 := time.Now()
			p.reads = append(p.reads, r1.Sub(r0).Seconds())
			if rec != nil {
				rec.add(span{Name: "batch.read", Req: step, Start: ns(r0), End: ns(r1)})
			}
		}
		if !more {
			break
		}
	}
	tf := time.Now()
	p.res = sm.Finish()
	end := time.Now()
	p.finishSec = end.Sub(tf).Seconds()
	if rec != nil {
		rec.add(span{Name: "sim.finish", Start: ns(tf), End: ns(end)})
	}
	p.readSec = sum(p.reads)
	p.hostSec = end.Sub(start).Seconds() - p.readSec
	p.cpuSec = cpuSeconds() - cpu0
	p.gc = readGC().since(gc0)
	p.rssMB, p.heapMB = mem.stop()
	p.records, p.nextBusy = src.n, src.busy
	return p, nil
}

// readSink keeps status reads from being optimised away.
var readSink int

// readStatus is the batch side's job-status read: what the service's
// GET /v1/jobs/{id} does on its event loop for a live job — find it
// among the live jobs and resolve each task's placement. It returns the
// number of placed tasks, or -1 for a job that is not live.
func readStatus(sm *sim.Simulator, simIndex int) int {
	for _, j := range sm.ActiveJobs() {
		if j.SimIndex != simIndex {
			continue
		}
		cl, placed := sm.Cluster(), 0
		for _, t := range j.Tasks {
			if cl.Lookup(t.ID.Ref()) != nil {
				placed++
			}
		}
		return placed
	}
	return -1
}

// checkAccounting verifies that every submitted job is accounted for
// exactly once: retired through the simulator, present in the result,
// and completed, truncated or rejected. The completions are counted by
// the retire hook, apart from the simulator's counters, so a job that
// both completes and is counted truncated or rejected fails the check.
func checkAccounting(spec batchSpec, p *batchPass) error {
	c := p.res.Counters
	switch {
	case p.records != spec.jobs:
		return fmt.Errorf("source yielded %d records, want %d", p.records, spec.jobs)
	case p.retired != spec.jobs:
		return fmt.Errorf("%d jobs retired, want %d", p.retired, spec.jobs)
	case p.res.Jobs != spec.jobs || len(p.res.JCTs) != spec.jobs:
		return fmt.Errorf("result holds %d jobs (%d JCTs), want %d", p.res.Jobs, len(p.res.JCTs), spec.jobs)
	case p.completed+c.Truncated+c.Rejected != spec.jobs:
		return fmt.Errorf("completed %d + truncated %d + rejected %d != submitted %d",
			p.completed, c.Truncated, c.Rejected, spec.jobs)
	}
	return nil
}

// sameResult compares two runs' results with the wall-clock and
// execution-mode counters zeroed, the comparison the resume and serve
// parity tests make.
func sameResult(a, b *metrics.Result) bool {
	x, y := *a, *b
	x.Counters.ZeroVolatile()
	y.Counters.ZeroVolatile()
	return reflect.DeepEqual(&x, &y)
}

// pooled sums the passes of one invocation's simulations.
type pooled []*batchPass

func (ps pooled) completed() (n int) {
	for _, p := range ps {
		n += p.completed
	}
	return n
}

func (ps pooled) hostSec() (t float64) {
	for _, p := range ps {
		t += p.hostSec
	}
	return t
}

func (ps pooled) throughput() float64 { return float64(ps.completed()) / ps.hostSec() }

// cat concatenates one sample slice of every pass.
func (ps pooled) cat(f func(*batchPass) []float64) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, f(p)...)
	}
	return out
}

// total sums one scalar of every pass.
func (ps pooled) total(f func(*batchPass) float64) (t float64) {
	for _, p := range ps {
		t += f(p)
	}
	return t
}

// peak is the largest value of one scalar over the passes.
func (ps pooled) peak(f func(*batchPass) float64) (m float64) {
	for _, p := range ps {
		m = max(m, f(p))
	}
	return m
}

// report stores every end-to-end metric but setup_s, over the passes.
func (ps pooled) report(o *outcome) {
	submits := ps.cat(func(p *batchPass) []float64 { return p.submits })
	reads := ps.cat(func(p *batchPass) []float64 { return p.reads })
	jobs := ps.total(func(p *batchPass) float64 { return float64(p.res.Jobs) })
	lim := latencyLimitMs / 1000
	v := o.values
	v["throughput_per_s"] = ps.throughput()
	v["peak_rss_mb"] = ps.peak(func(p *batchPass) float64 { return p.rssMB })
	v["avg_jct_min"] = ps.total(func(p *batchPass) float64 { return p.res.AvgJCTSec * float64(p.res.Jobs) }) / jobs / 60
	v["deadline_ratio"] = ps.total(func(p *batchPass) float64 { return p.res.DeadlineRatio * float64(p.res.Jobs) }) / jobs
	v["goodput_per_s"] = float64(countWithin(submits, lim)+countWithin(reads, lim)) / ps.hostSec()
	o.quantiles("decision", ps.cat(func(p *batchPass) []float64 { return p.rounds }))
	o.quantiles("submit", submits)
	o.quantiles("read", reads)
}

// measureSetup times setupBlock builds of the first simulation:
// scheduler, source and simulator, as a library user would make them.
// A build runs on one thread and waits for nothing, so it is timed by
// that thread's CPU clock: time the hypervisor gave other guests, or
// the OS another thread, would otherwise count against a step of a
// fraction of a millisecond.
func measureSetup(spec batchSpec, seed int64) ([]float64, error) {
	setups := make([]float64, setupBlock)
	for i := range setups {
		runtime.GC() // each set-up starts from a collected heap, as a fresh process would
		runtime.LockOSThread()
		c0 := threadCPU()
		sm, _, err := newBatchSim(spec, seed)
		setups[i] = (threadCPU() - c0).Seconds()
		runtime.UnlockOSThread()
		if err != nil {
			return nil, err
		}
		sm.Close()
	}
	return setups, nil
}

// runAll runs every simulation of the invocation. With setups non-nil
// it also times a block of set-ups before the first simulation and
// after each one, so that the set-up samples span the whole run, as
// the other timings do: a set-up is a fraction of a millisecond, and
// blocks of them taken seconds apart on a shared host differ by a
// fifth or more.
func runAll(spec batchSpec, seed int64, rec *recorder, setups *[]float64) (pooled, error) {
	block := func() error {
		if setups == nil {
			return nil
		}
		xs, err := measureSetup(spec, subSeed(seed, 0))
		*setups = append(*setups, xs...)
		return err
	}
	if err := block(); err != nil {
		return nil, err
	}
	var ps pooled
	for i := 0; i < spec.runs; i++ {
		sm, src, err := newBatchSim(spec, subSeed(seed, i))
		if err != nil {
			return nil, err
		}
		p, err := runPass(sm, src, subSeed(seed, i), rec)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		if err := block(); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// runBatch measures one batch workload.
func runBatch(spec batchSpec, rc runConfig) (*outcome, error) {
	var setups []float64
	plain, err := runAll(spec, rc.seed, nil, &setups)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: spec.jobs * spec.runs,
		values:    map[string]float64{},
		samples:   map[string]quantile{},
		params:    map[string]any{"setup_s": setups},
	}
	for _, p := range plain {
		out.failed += p.res.Counters.Rejected
		if err := checkAccounting(spec, p); err != nil {
			out.fail(err)
		}
	}

	plain.report(out)
	out.values["setup_s"] = median(append([]float64(nil), setups...))
	readSec := plain.total(func(p *batchPass) float64 { return p.readSec })
	out.params["read_host_share"] = readSec / (plain.hostSec() + readSec)
	out.params["cpu_s"] = plain.total(func(p *batchPass) float64 { return p.cpuSec })
	if !rc.traced {
		return out, nil
	}

	// Traced passes over fresh simulators of the same runs: spans for
	// the per-layer times, and a check that tracing changed nothing.
	rec := newRecorder()
	traced, err := runAll(spec, rc.seed, rec, nil)
	if err != nil {
		return nil, err
	}
	for i := range traced {
		if !sameResult(plain[i].res, traced[i].res) {
			out.fail(fmt.Errorf("traced simulation %d diverged from the untraced one", i))
		}
	}
	out.spans = rec
	v := out.values
	rounds := plain.cat(func(p *batchPass) []float64 { return p.rounds })
	layers := selfTimes(rec.snapshot())
	steps := layers["sim.step"]
	nSteps := plain.total(func(p *batchPass) float64 { return float64(len(p.steps)) })
	counter := func(f func(c metrics.Counters) float64) float64 {
		return plain.total(func(p *batchPass) float64 { return f(p.res.Counters) })
	}
	v["philly.records"] = traced.total(func(p *batchPass) float64 { return float64(p.records) })
	v["philly.next_busy_s"] = traced.total(func(p *batchPass) float64 { return p.nextBusy.Seconds() })
	v["sim.steps"] = nSteps
	v["sim.sim_days"] = counter(func(c metrics.Counters) float64 { return c.SimulatedSec }) / 86400
	v["sim.step_busy_s"] = steps.Total.Seconds()
	v["sim.self_s"] = steps.Self.Seconds()
	v["sim.step_p50_us"] = percentile(steps.Durations, 50).Value * 1e6
	v["sim.step_p99_us"] = percentile(steps.Durations, 99).Value * 1e6
	v["sim.allocs_per_step"] = plain.total(func(p *batchPass) float64 { return float64(p.gc.mallocs) }) / nSteps
	v["sim.alloc_kb_per_step"] = plain.total(func(p *batchPass) float64 { return float64(p.gc.bytes) }) / 1024 / nSteps
	v["sim.finish_ms"] = layers["sim.finish"].Total.Seconds() * 1000
	v["sched.rounds"] = float64(len(rounds))
	v["sched.busy_s"] = sum(rounds)
	v["sched.skipped_rounds"] = counter(func(c metrics.Counters) float64 { return float64(c.SkippedRounds) })
	v["sched.dirty_jobs"] = counter(func(c metrics.Counters) float64 { return float64(c.DirtyJobs) })
	v["sched.placements"] = counter(func(c metrics.Counters) float64 { return float64(c.Placements) })
	v["sched.migrations"] = counter(func(c metrics.Counters) float64 { return float64(c.Migrations) })
	v["sched.evictions"] = counter(func(c metrics.Counters) float64 { return float64(c.Evictions) })
	v["sched.useful_round_ratio"] = plain.total(func(p *batchPass) float64 { return float64(p.useful) }) / float64(len(rounds))
	out.mlfrl(spec.scheduler == "mlfs", plain)
	v["cluster.overload_server_ticks"] = counter(func(c metrics.Counters) float64 { return float64(c.OverloadOccurrences) })
	v["cluster.bandwidth_gb"] = counter(func(c metrics.Counters) float64 { return c.BandwidthMB }) / 1024
	v["cluster.migration_gb"] = counter(func(c metrics.Counters) float64 { return c.MigrationMB }) / 1024
	for _, name := range []string{
		"serve.recover_s", "serve.ready_s", "serve.ticks", "serve.sched_busy_share", "serve.round_p50_ms", "serve.sim_lag_s",
		"serve.submit_handler_p50_ms", "serve.journal_bytes_per_submit", "serve.snapshots", "serve.snapshot_kb",
		"loadgen.sent", "loadgen.failed", "loadgen.late_p99_ms",
	} {
		v[name] = 0 // no service on the path of a batch run
	}
	v["go.gc_cycles"] = plain.total(func(p *batchPass) float64 { return float64(p.gc.cycles) })
	v["go.gc_pause_ms"] = plain.total(func(p *batchPass) float64 { return float64(p.gc.pauseNs) }) / 1e6
	v["go.heap_peak_mb"] = plain.peak(func(p *batchPass) float64 { return p.heapMB })
	v["tracing.overhead_pct"] = 100 * (plain.throughput() - traced.throughput()) / plain.throughput()
	return out, nil
}

// mlfrl splits each simulation's round samples at MLF-RL's imitation
// boundary: the scheduler shadows MLF-H until its ImitationRounds-th
// round and follows its own policy from then on. Schedulers without
// MLF-RL report zeros.
func (o *outcome) mlfrl(applies bool, ps pooled) {
	v := o.values
	if !applies {
		for _, name := range []string{"mlfrl.imitation_rounds", "mlfrl.policy_rounds",
			"mlfrl.imitation_round_p50_ms", "mlfrl.policy_round_p50_ms", "mlfrl.policy_round_p99_ms"} {
			v[name] = 0
		}
		return
	}
	var imit, policy []float64
	for _, p := range ps {
		cut := min(mlfrl.DefaultConfig().ImitationRounds-1, len(p.rounds))
		imit = append(imit, p.rounds[:cut]...)
		policy = append(policy, p.rounds[cut:]...)
	}
	v["mlfrl.imitation_rounds"] = float64(len(imit))
	v["mlfrl.policy_rounds"] = float64(len(policy))
	v["mlfrl.imitation_round_p50_ms"] = percentile(imit, 50).Value * 1000
	v["mlfrl.policy_round_p50_ms"] = percentile(policy, 50).Value * 1000
	q := percentile(policy, 99)
	v["mlfrl.policy_round_p99_ms"] = q.Value * 1000
	o.samples["mlfrl.policy_round_p99"] = q
}
