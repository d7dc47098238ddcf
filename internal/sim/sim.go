// Package sim is the time-stepped ML-cluster simulator that drives every
// experiment in this repository. It replays a workload, streamed one
// submission at a time from a trace.Source, against a cluster under a
// pluggable scheduler, advancing training progress in
// fixed ticks (the paper's scheduler runs every minute, §4.1) and
// accounting all the quantities the paper's figures report.
//
// Execution model (documented in DESIGN.md): jobs train synchronously —
// an iteration requires all tasks placed; iteration latency is the
// critical path over the task DAG of per-stage compute (inflated by
// server/device overload) plus cross-server communication time; jobs with
// unplaced tasks make no progress and accrue waiting time.
//
// The per-tick hot path is allocation-free and incrementally cached (see
// DESIGN.md "Performance"): iteration costs are memoised per job and
// invalidated by server load epochs, all per-tick buffers are scratch
// state reused across ticks. One goroutine owns all simulation state:
// nothing in the package starts another.
//
// Fault injection (faults.go) is strictly opt-in: with the zero
// FailureConfig the simulator is bit-identical to a build without the
// subsystem, and when enabled all failure events are applied at tick
// start, before the scheduling round. The package
// is enrolled in the lint DeterministicPaths registry (mapiter, noclock,
// sharedcapture), plus the repo-wide epochguard, floatcmp and pkgdoc
// checks; the single deliberate wall-clock read (scheduler-overhead
// telemetry) carries an //mlfs:allow suppression.
package sim

import (
	"fmt"
	"math"
	"time"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
	"mlfs/internal/trace"
)

// Config parameterises a simulation run.
type Config struct {
	Cluster cluster.Config
	// Source streams the workload one record at a time and is the only
	// way jobs enter the simulator: each job is materialised at its
	// admission tick and, outside dense mode, retired from every hot set
	// when it finishes, so peak memory is O(peak live jobs). A
	// materialised trace runs through trace.NewSliceSource.
	Source    trace.Source //mlfs:derived read position rebuilt by restore's re-stream of the consumed prefix
	Scheduler sched.Scheduler

	// TickSec is the scheduling period (default 60 s, §4.1).
	TickSec float64
	// HR / HS are the overload thresholds h_r and h_s (default 0.9, §4.1).
	HR, HS float64
	// FlowMBps is the per-flow effective network bandwidth for
	// cross-server transfers (default 250 MB/s).
	FlowMBps float64
	// DemandWobble is the relative amplitude of task demand variation
	// over time (default 0.35); it is what drives servers into transient
	// overload. WobblePeriodSec is its period (default 3600 s).
	DemandWobble    float64
	WobblePeriodSec float64
	// MaxSimSec caps the simulation horizon (default: source duration +
	// 30 days). Jobs still unfinished at the horizon are force-finished
	// and counted as truncated.
	MaxSimSec float64

	// DenseTicks disables the sparse-core hot-set optimisations —
	// per-job caches are fixed by SimIndex instead of recycled slots,
	// finished jobs are never retired from the scheduler context's task
	// index, the retry-release scan runs ungated every tick and the
	// placed-task-count gates are off. Results are bit-identical either
	// way (the cross-check suite proves it); dense mode exists as the
	// correctness oracle.
	DenseTicks bool //mlfs:transient run-mode knob; a resume may legally flip it (results are bit-identical either way)

	// FullRescan disables the incremental scheduling rounds of the
	// sparse core: the context is Reset (not Advanced) every round, no
	// change journal is delivered, PendingJobs rescans the backlog and
	// the no-fit frontier is off. It is the round-structure correctness
	// oracle the incremental path is cross-checked against; results are
	// bit-identical either way. Dense mode implies it.
	FullRescan bool //mlfs:transient run-mode knob; a resume may legally flip it (results are bit-identical either way)

	// Straggler injection (§3.3.3 notes stragglers from failing hardware
	// and misconfiguration; handling them is the paper's future work,
	// implemented here as an extension). Each tick each running job's
	// iteration is slowed by StragglerSlow× with probability
	// StragglerProb (0 disables injection).
	StragglerProb float64
	StragglerSlow float64
	// ReplicateStragglers enables the paper's proposed mitigation:
	// duplicate the straggling task on another server and take whichever
	// finishes first. The slowdown then shrinks to a small residual and
	// every incident pays one task-state transfer in bandwidth.
	ReplicateStragglers bool

	// Failures configures server fault injection and checkpoint/restart
	// recovery (see FailureConfig). The zero value disables it and keeps
	// the simulation bit-identical to a failure-free build.
	Failures FailureConfig

	// SnapshotEvery writes a crash-consistent snapshot of the complete
	// simulation state to SnapshotPath after every SnapshotEvery ticks
	// (0 disables snapshotting entirely — the hot path then pays one
	// integer comparison per tick and allocates nothing; negative is a
	// configuration error). The scheduler must implement
	// sched.Snapshotter.
	SnapshotEvery int
	// SnapshotPath is the snapshot destination file, written atomically
	// (temp file + rename) with a checksummed header. Required when
	// SnapshotEvery > 0.
	SnapshotPath string
	// StopAtTick, when positive, makes Run return after that many total
	// ticks have executed (counted across restores, like the snapshot
	// cadence). It is the crash-injection seam of the chaos harness: a
	// "killed" process is a run stopped mid-flight, resumed in a fresh
	// simulator from the latest snapshot. The partial metrics returned
	// by a stopped Run are discarded by resuming callers.
	StopAtTick int //mlfs:transient chaos-harness knob; each resumed run sets its own stop point
}

func (c Config) withDefaults() Config {
	if c.TickSec <= 0 {
		c.TickSec = 60
	}
	if c.HR <= 0 {
		c.HR = 0.9
	}
	if c.HS <= 0 {
		c.HS = 0.9
	}
	if c.FlowMBps <= 0 {
		c.FlowMBps = 250
	}
	if c.DemandWobble < 0 {
		c.DemandWobble = 0
	} else if c.DemandWobble == 0 {
		c.DemandWobble = 0.35
	}
	if c.WobblePeriodSec <= 0 {
		c.WobblePeriodSec = 3600
	}
	if c.MaxSimSec <= 0 {
		dur := 7 * 24 * 3600.0
		if d := c.Source.Duration(); d > 0 {
			dur = d
		}
		c.MaxSimSec = dur + 30*24*3600
	}
	if c.StragglerSlow <= 1 {
		c.StragglerSlow = 3
	}
	if c.Failures.Enabled() {
		c.Failures = c.Failures.withDefaults()
	}
	return c
}

// serverEpoch records the load epoch of one server at the time a job's
// iteration cost was computed. The cost stays valid exactly as long as
// every recorded epoch still matches the live server epoch.
type serverEpoch struct {
	server int
	epoch  uint64
}

// jobIterCache memoises one job's iteration cost. place and touched
// double as scratch buffers for the computation, so a steady-state
// recompute allocates nothing.
type jobIterCache struct {
	valid   bool
	iterSec float64
	crossMB float64
	// touched holds the distinct servers the job's tasks occupy (and
	// their epochs at compute time) — also the server set of the
	// all-reduce cost term.
	touched []serverEpoch
	// place caches the task placements, indexed like job.Tasks.
	place []*cluster.Placement
}

// finishRec is one job that completed during advance, finalised (in
// ascending job order) after every active job has advanced.
type finishRec struct {
	j  *job.Job
	at float64
}

// advShardSize is the fixed job-index range whose bandwidth advance sums
// into one partial. The partials fold in a balanced tree (treeCombine),
// so the float summation order is a pure function of the active-job
// count.
const advShardSize = 64

// Simulator executes one run on the calling goroutine. Create a fresh
// Simulator per run.
type Simulator struct {
	cfg     Config
	cl      *cluster.Cluster
	sched   sched.Scheduler
	pending int        // jobs admitted or rejected so far; next arrival's SimIndex
	total   int        // total submissions of the run (Source.Len())
	active  []*job.Job // admitted, not done
	waiting map[job.TaskID]*job.Task
	now     float64

	// Streaming ingestion: srcRec/srcHave are the one-record admission
	// lookahead, nextTaskID the task-identity cursor (task IDs are
	// assigned in stream order), lastArrival enforces the source's
	// nondecreasing-arrival contract, and tallies accumulates the per-job
	// result metrics of retired jobs — the only per-job state that
	// outlives retirement.
	srcRec      trace.Record //mlfs:derived lookahead re-primed by restore's stream replay
	srcHave     bool         //mlfs:derived lookahead re-primed by restore's stream replay
	nextTaskID  job.TaskID   //mlfs:derived rebuilt by re-streaming the consumed source prefix
	lastArrival float64      //mlfs:derived rebuilt by re-streaming the consumed source prefix
	tallies     []metrics.Tally

	// admitOrder, when set, permutes a job's tasks before they are
	// inserted into the waiting map. Test seam only: the determinism
	// tests use it to prove results are independent of map insertion
	// order (schedulers must sort before acting, never rely on range).
	admitOrder func([]*job.Task) []*job.Task

	// onRetire, when set, observes every job at the instant it retires
	// (finish, stop, kill or admission rejection). Observer only — it
	// must not mutate simulator state. Hosts that drive RunStep (the
	// online service) use it to capture final per-job outcomes.
	onRetire func(*job.Job) //mlfs:derived observer callback; re-registered by the restoring host

	// onRoundTime, when set, receives the wall-clock duration of every
	// scheduling round immediately after it runs. Telemetry only — the
	// value must never feed simulation state. The online service uses it
	// for its per-round decision-latency histogram.
	onRoundTime func(seconds float64) //mlfs:derived observer callback; re-registered by the restoring host

	counters metrics.Counters

	// Cancellations (cancel.go): cancelQueue holds the cancels stamped in
	// the simulated future, stably by stamp; cancelDeferred the jobs
	// cancelled before admission, in call order.
	cancelQueue    []queuedCancel
	cancelDeferred []int

	// Round feedback handed to reward-driven schedulers. recentCompleted
	// and recentSpare are double-buffered across rounds so the handoff
	// never allocates.
	recentCompleted []*job.Job
	recentSpare     []*job.Job //mlfs:derived double-buffer spare; contents never outlive a round
	lastBWMark      float64

	// tick counts executed steps across the whole logical run (restores
	// included); it drives the snapshot cadence and StopAtTick.
	tick int

	// Fault injection (nil / unused when Config.Failures is zero).
	// faults yields the deterministic failure/repair event stream;
	// parked holds jobs sitting out their retry backoff, in
	// failure-event order. retryHeap (sparse mode, see events.go) gates
	// the per-tick release scan on the earliest pending release.
	faults    *cluster.FaultProcess
	parked    []*job.Job
	retryHeap []float64 //mlfs:derived rebuilt from the restored parked jobs' NextRetryAt

	// Hot-path state: one scheduling context reused for the whole run,
	// per-job iteration-cost caches invalidated by server load epochs,
	// and scratch buffers recycled across ticks.
	// cache is indexed by job.SimSlot: in dense mode every job owns the
	// slot equal to its SimIndex from admission on; in sparse mode slots
	// are assigned at admission and recycled through freeSlots at
	// retirement, so the cache footprint tracks peak live jobs rather
	// than total submissions.
	ctx           *sched.Context //mlfs:derived repopulated from the restored jobs at the next Reset
	cache         []jobIterCache //mlfs:derived epoch-keyed cache, re-sized and missed after restore
	freeSlots     []int          //mlfs:derived rebuilt by restore's slot reassignment
	activeScratch []*job.Job     //mlfs:derived per-tick scratch
	parkedScratch []*job.Job     //mlfs:derived per-tick scratch (also reused by the encoder's park scan)
	finScratch    []finishRec    //mlfs:derived per-tick scratch: advance's deferred finishes
	bwPartials    []float64      //mlfs:derived per-tick scratch: advance's bandwidth partials
}

// New assembles a simulator. It only rewinds the source; jobs are
// materialised one at a time at admission.
func New(cfg Config) (*Simulator, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("sim: no source")
	}
	cfg = cfg.withDefaults()
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: no scheduler")
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("sim: SnapshotEvery must be >= 0, got %d", cfg.SnapshotEvery)
	}
	if cfg.SnapshotEvery > 0 {
		if cfg.SnapshotPath == "" {
			return nil, fmt.Errorf("sim: SnapshotEvery is set but SnapshotPath is empty")
		}
		if _, ok := cfg.Scheduler.(sched.Snapshotter); !ok {
			return nil, fmt.Errorf("sim: scheduler %q does not implement sched.Snapshotter", cfg.Scheduler.Name())
		}
	}
	cl := cluster.New(cfg.Cluster)
	cfg.Source.Reset()
	s := &Simulator{
		cfg:     cfg,
		cl:      cl,
		sched:   cfg.Scheduler,
		total:   cfg.Source.Len(),
		waiting: make(map[job.TaskID]*job.Task),
		// One context serves every round; Reset re-primes it per tick.
		// Its task index starts empty: admission adds each materialised
		// job and, outside dense mode, retirement removes it.
		ctx: sched.NewContext(0, cl, nil, nil, cfg.HR, cfg.HS),
	}
	if cfg.Failures.Enabled() {
		f := cfg.Failures
		s.faults = cluster.NewFaultProcess(cl.NumServers(), f.MTTFSec, f.MTTRSec, f.Seed)
	}
	// Incremental rounds are the sparse-core default; dense mode and the
	// explicit FullRescan oracle keep the historical full-scan rounds.
	if !cfg.DenseTicks && !cfg.FullRescan {
		s.ctx.EnableIncremental()
	}
	return s, nil
}

// Run executes the simulation to completion and returns the metrics.
// It is a plain loop over RunStep, so a host that drives RunStep
// directly (the online service) executes the exact same code path —
// the bit-identity argument never forks.
func (s *Simulator) Run() (*metrics.Result, error) {
	for {
		progressed, err := s.RunStep()
		if err != nil {
			return nil, err
		}
		if !progressed {
			break
		}
	}
	return s.Finish(), nil
}

// RunStep executes one iteration of the run loop: apply the queued
// cancels now due, admit due arrivals, quiescent-skip to the next event
// if the simulator is idle, execute one tick (or truncate at the
// horizon), then apply the deferred cancels of newly admitted jobs. It
// returns false when the run has reached a stopping condition — no
// pending events, the MaxSimSec horizon, or StopAtTick — and true when a
// tick executed and another call may make progress. A false return is
// not terminal: if new submissions appear on a live Source afterwards,
// calling RunStep again resumes the run (that is how the online service
// idles).
func (s *Simulator) RunStep() (bool, error) {
	s.fireDueCancels()
	progressed, err := s.tickOnce()
	s.fireAdmittedCancels()
	if err != nil || !progressed {
		return false, err
	}
	if s.cfg.SnapshotEvery > 0 && s.tick%s.cfg.SnapshotEvery == 0 {
		if err := s.writeSnapshot(); err != nil {
			return false, err
		}
	}
	if s.cfg.StopAtTick > 0 && s.tick >= s.cfg.StopAtTick {
		return false, nil
	}
	return true, nil
}

// tickOnce is RunStep's core: admission, the quiescent skip, then one
// tick or the truncation at the horizon.
func (s *Simulator) tickOnce() (bool, error) {
	if err := s.admitArrivals(); err != nil {
		return false, err
	}
	if !s.HasPendingEvents() {
		return false, nil
	}
	dt := s.cfg.TickSec
	// Quiescent skip: when the next event lies beyond the next tick —
	// only possible while idle, with the horizon at the next arrival
	// (events.go proves every other source inert) — jump straight to
	// the tick containing it.
	if next, ok := s.PeekNextEventTime(); ok && next > s.now+dt {
		s.AdvanceTo(next)
		if err := s.admitArrivals(); err != nil {
			return false, err
		}
	}
	if s.now >= s.cfg.MaxSimSec {
		if err := s.truncate(); err != nil {
			return false, err
		}
		return false, nil
	}
	s.step(dt)
	s.tick++
	return true, nil
}

// Finish stamps the total simulated time and folds the final metrics
// over the tallies accumulated at retirement (ComputeFromTallies orders
// them by SimIndex, so the float summation order is fixed). Safe to
// call repeatedly: the fold reads, never consumes, the tallies — the
// online service calls it per status request on a live run.
func (s *Simulator) Finish() *metrics.Result {
	s.counters.SimulatedSec = s.now
	return metrics.ComputeFromTallies(s.sched.Name(), s.tallies, s.counters)
}

// Close does nothing: a Simulator holds no goroutines, files or other
// resources beyond its memory. It remains so that hosts which end a run
// with Close keep compiling.
func (s *Simulator) Close() {}

// step executes one scheduler tick: failure/repair events, then demand
// wobble, a scheduling round, job advancement and overload accounting.
// It is the steady-state hot path and performs no heap allocations of
// its own when fault injection is disabled. Failure events are applied
// at tick start, before the scheduling round and job advancement.
func (s *Simulator) step(dt float64) {
	if s.faults != nil {
		killed := s.counters.JobsKilled
		s.injectFailures()
		if s.counters.JobsKilled != killed {
			// Killed jobs leave the active set before the scheduler runs.
			s.pruneActive()
		}
		s.releaseParked()
	}
	s.wobbleDemands()
	s.runScheduler()
	s.advance(dt)
	s.countOverloads()
	s.now += dt
}

// peekArrival returns the arrival time of the next un-admitted
// submission without consuming it, holding the record in a one-record
// lookahead buffer.
func (s *Simulator) peekArrival() (at float64, ok bool) {
	if !s.srcHave {
		rec, more := s.cfg.Source.Next()
		if !more {
			return 0, false
		}
		s.srcRec, s.srcHave = rec, true
	}
	return s.srcRec.ArrivalSec, true
}

// nextArrival consumes the submission peekArrival exposed and
// materialises it. SimIndex and task identities are both assigned in
// stream order, so equal streams yield equal jobs.
func (s *Simulator) nextArrival() (*job.Job, error) {
	if s.srcRec.ArrivalSec < s.lastArrival {
		return nil, fmt.Errorf("sim: source violates arrival order: job %d at %gs after %gs",
			s.srcRec.JobID, s.srcRec.ArrivalSec, s.lastArrival)
	}
	j, err := trace.Materialize(s.srcRec, &s.nextTaskID)
	if err != nil {
		return nil, fmt.Errorf("sim: job %d: %w", s.srcRec.JobID, err)
	}
	j.SimIndex = s.pending
	j.SimSlot = -1
	s.lastArrival = s.srcRec.ArrivalSec
	s.srcHave = false
	s.pending++
	return j, nil
}

// admitArrivals moves newly arrived jobs into the active set and queues
// their tasks. Jobs that can never fit the cluster (more GPU tasks than
// the cluster has GPUs) are rejected at admission, as a real cluster
// would: they count as deadline-missed with zero accuracy for every
// scheduler alike. It only fails on a corrupt or misordered record
// stream.
func (s *Simulator) admitArrivals() error {
	for {
		at, ok := s.peekArrival()
		if !ok || at > s.now {
			return nil
		}
		j, err := s.nextArrival()
		if err != nil {
			return err
		}
		if j.GPUsRequested() > s.cl.NumGPUs() {
			j.State = job.Stopped
			j.FinishTime = math.Max(j.Deadline, j.Arrival)
			j.DeadlineSnapped = true
			s.counters.Rejected++
			s.retire(j)
			continue
		}
		j.State = job.Pending
		ts := j.Tasks
		if s.admitOrder != nil {
			ts = s.admitOrder(ts)
		}
		for _, t := range ts {
			t.QueuedAt = s.now
			s.waiting[t.ID] = t
		}
		s.ctx.NotePending(j)
		s.ctx.MarkDirty(j)
		s.ctx.AddJob(j)
		// Slots are handed out here, in admission order.
		s.assignSlot(j)
		s.active = append(s.active, j)
	}
}

// assignSlot gives j its cache slot: in dense mode the fixed slot equal
// to its SimIndex, otherwise a recycled one from the free list.
func (s *Simulator) assignSlot(j *job.Job) {
	if j.SimSlot >= 0 {
		return
	}
	if s.cfg.DenseTicks {
		for len(s.cache) <= j.SimIndex {
			s.cache = append(s.cache, jobIterCache{})
		}
		j.SimSlot = j.SimIndex
		return
	}
	if n := len(s.freeSlots); n > 0 {
		j.SimSlot = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return
	}
	j.SimSlot = len(s.cache)
	s.cache = append(s.cache, jobIterCache{})
}

// freeSlot returns j's cache slot to the free list, keeping the slot's
// scratch buffers for the next tenant.
func (s *Simulator) freeSlot(j *job.Job) {
	if j.SimSlot < 0 {
		return
	}
	s.cache[j.SimSlot].valid = false
	s.freeSlots = append(s.freeSlots, j.SimSlot)
	j.SimSlot = -1
}

// retire reduces a finalised job to its metrics tally and fires the
// retire hook. Outside dense mode it also drops the job from every hot
// set — the scheduler context's task index and its recycled cache slot
// — so per-decision cost and memory track live jobs, not total
// submissions. The job object stays valid for anyone still holding it
// (the completed-jobs feedback buffer, a scheduler's staged rewards).
func (s *Simulator) retire(j *job.Job) {
	if !s.cfg.DenseTicks {
		s.ctx.ForgetJob(j)
		s.freeSlot(j)
	}
	s.tallies = append(s.tallies, metrics.TallyOf(j))
	if s.onRetire != nil {
		s.onRetire(j)
	}
}

// activity returns the demand wobble multiplier for a task on a server at
// the current time. The phase mixes task and server identity so migrating
// genuinely changes a task's interference pattern.
func (s *Simulator) activity(t job.TaskID, server int) float64 {
	h := uint64(t)*0x9e3779b9 + uint64(server)*0x85ebca6b
	phase := float64(h%1000) / 1000
	return 1 + s.cfg.DemandWobble*math.Sin(2*math.Pi*(s.now/s.cfg.WobblePeriodSec+phase))
}

// wobbleDemands updates every placed task's demand for this tick. The
// placement from the single Lookup is updated directly (UpdateDemand), so
// the per-task cost is one map access instead of two.
func (s *Simulator) wobbleDemands() {
	if s.cfg.DemandWobble == 0 {
		return
	}
	for _, j := range s.active {
		// Sparse mode: a job with nothing placed has nothing to wobble —
		// every Lookup below would miss. Skipping it is a pure no-op that
		// keeps the scan proportional to placed jobs, not admitted jobs.
		if !s.cfg.DenseTicks && j.PlacedTasks == 0 {
			continue
		}
		for _, t := range j.Tasks {
			p := s.cl.Lookup(t.ID.Ref())
			if p == nil {
				continue
			}
			a := s.activity(t.ID, p.Server)
			d := t.Demand
			d[cluster.ResCPU] *= a
			d[cluster.ResBandwidth] *= a
			gpu := t.GPUShare * a
			d[cluster.ResGPU] = gpu
			s.cl.UpdateDemand(p, d, gpu)
		}
	}
}

// runScheduler invokes the policy and applies its stop decisions. The
// waiting map is shared with the context, so placements and evictions are
// reflected in it the moment Schedule returns — no rebuild. Incremental
// rounds Advance the context (swapping in the change journal accumulated
// since the previous round) and deliver it to schedulers that opt in via
// sched.Incremental before Schedule runs.
func (s *Simulator) runScheduler() {
	if s.ctx.Incremental() {
		s.ctx.Advance(s.now, s.active, s.waiting)
		if inc, ok := s.sched.(sched.Incremental); ok {
			inc.Dirty(s.ctx.RoundDirty())
		}
		s.counters.DirtyJobs += len(s.ctx.RoundDirty())
	} else {
		s.ctx.Reset(s.now, s.active, s.waiting)
	}
	s.ctx.Completed = s.recentCompleted
	s.ctx.RecentBandwidthMB = s.counters.BandwidthMB - s.lastBWMark
	// The buffer handed to the previous round has been consumed; recycle
	// it as the accumulator for the finishes of this tick.
	s.recentCompleted, s.recentSpare = s.recentSpare[:0], s.recentCompleted
	s.lastBWMark = s.counters.BandwidthMB
	start := time.Now() //mlfs:allow noclock,detflow telemetry: SchedSeconds measures real scheduler overhead (Fig 4g) and never feeds simulation state
	s.sched.Schedule(s.ctx)
	roundSec := time.Since(start).Seconds() //mlfs:allow noclock,detflow telemetry: wall-time value only; zeroed by the determinism tests
	s.counters.SchedSeconds += roundSec
	s.counters.SchedRounds++
	if s.onRoundTime != nil {
		s.onRoundTime(roundSec)
	}
	if s.ctx.Skipped {
		s.counters.SkippedRounds++
	}

	s.counters.Placements += s.ctx.Placements
	s.counters.Migrations += s.ctx.Migrations
	s.counters.Evictions += s.ctx.Evictions
	s.counters.BandwidthMB += s.ctx.MigratedMB
	s.counters.MigrationMB += s.ctx.MigratedMB

	if len(s.ctx.Stopped) > 0 {
		for _, j := range s.ctx.Stopped {
			s.finishJob(j, s.now, job.Stopped)
		}
		s.pruneActive()
	}
}

// pruneActive drops Done jobs from the active list.
func (s *Simulator) pruneActive() {
	live := s.activeScratch[:0]
	for _, j := range s.active {
		if !j.Done() {
			live = append(live, j)
		}
	}
	s.activeScratch = s.active[:0]
	s.active = live
}

// iterationCost returns the per-iteration latency and cross-server
// traffic for a fully placed job under the current cluster state. The
// value is served from the job's epoch-keyed cache when the load on every
// server the job touches is unchanged since it was computed.
func (s *Simulator) iterationCost(j *job.Job) (sec, crossMB float64) {
	c := &s.cache[j.SimSlot]
	if !(c.valid && s.cacheFresh(c)) {
		if !s.computeIterCost(j, c) {
			return math.Inf(1), 0
		}
	}
	return c.iterSec, c.crossMB
}

// cacheFresh reports whether a valid cache entry still reflects the live
// cluster: every placement, removal or demand change on a server bumps
// its epoch, so equality over the touched set proves nothing relevant to
// this job's cost has moved.
func (s *Simulator) cacheFresh(c *jobIterCache) bool {
	for _, se := range c.touched {
		if s.cl.Server(se.server).Epoch() != se.epoch {
			return false
		}
	}
	return len(c.touched) > 0
}

// computeIterCost fills c with the job's iteration cost under the current
// cluster state, reusing c's buffers. It returns false (and leaves c
// invalid) when any task is unplaced. It only reads cluster state.
func (s *Simulator) computeIterCost(j *job.Job, c *jobIterCache) bool {
	c.valid = false
	c.place = c.place[:0]
	c.touched = c.touched[:0]
	for _, t := range j.Tasks {
		p := s.cl.Lookup(t.ID.Ref())
		if p == nil {
			return false
		}
		c.place = append(c.place, p)
		seen := false
		for _, se := range c.touched {
			if se.server == p.Server {
				seen = true
				break
			}
		}
		if !seen {
			c.touched = append(c.touched, serverEpoch{p.Server, s.cl.Server(p.Server).Epoch()})
		}
	}
	var sec, crossMB float64
	for _, stage := range j.Stages() {
		var stageSec float64
		for _, ti := range stage {
			t := j.Tasks[ti]
			p := c.place[ti]
			taskSec := t.ComputeSec * s.slowdown(p)
			var inbound float64
			for _, pi := range t.Parents() {
				if c.place[pi].Server != p.Server {
					vol := j.CommVolWW
					if t.IsPS {
						vol = j.CommVolPS
					}
					inbound += vol
				}
			}
			if inbound > 0 {
				taskSec += inbound / s.effBW(p.Server)
				crossMB += inbound
			}
			if taskSec > stageSec {
				stageSec = taskSec
			}
		}
		sec += stageSec
	}
	// All-reduce parameter synchronisation across servers, paid once per
	// iteration. The wire volume per member is 2·V·(n−1)/n regardless of
	// topology; topologies differ in the number of synchronous steps and
	// hence fixed per-step overhead: 2(n−1) for a ring versus 4(√n−1)
	// for a 2D torus (rows then columns) — the torus advantage Mikami et
	// al. exploit (§3.2).
	if j.Comm == job.AllReduce && len(c.touched) > 1 {
		const stepOverheadSec = 0.005
		n := float64(len(c.touched))
		vol := 2 * j.CommVolWW * (n - 1)
		var worst float64
		for _, se := range c.touched {
			if bw := s.effBW(se.server); worst == 0 || bw < worst {
				worst = bw
			}
		}
		steps := 2 * (n - 1)
		if j.Topology == job.Torus2D {
			steps = 4 * (math.Sqrt(n) - 1)
		}
		sec += vol/n/worst + steps*stepOverheadSec
		crossMB += vol
	}
	c.iterSec, c.crossMB = sec, crossMB
	c.valid = true
	return true
}

// slowdown is the overload inflation factor for a placed task: the worst
// of the server's GPU/CPU/memory utilisation and its device's
// utilisation, floored at 1. It computes utilisation from raw
// used/capacity instead of the server's memoised accessor, so reading it
// never writes cluster state.
func (s *Simulator) slowdown(p *cluster.Placement) float64 {
	srv := s.cl.Server(p.Server)
	u := srv.Used().Div(srv.Capacity())
	f := 1.0
	if u[cluster.ResGPU] > f {
		f = u[cluster.ResGPU]
	}
	if u[cluster.ResCPU] > f {
		f = u[cluster.ResCPU]
	}
	if u[cluster.ResMemory] > f {
		f = u[cluster.ResMemory]
	}
	if du := srv.Devices()[p.Device].Utilization(); du > f {
		f = du
	}
	return f
}

// effBW is the effective per-flow bandwidth into a server: the configured
// flow rate divided by the server's bandwidth oversubscription.
func (s *Simulator) effBW(server int) float64 {
	srv := s.cl.Server(server)
	u := srv.Used().Div(srv.Capacity())[cluster.ResBandwidth]
	return s.cfg.FlowMBps / math.Max(1, u)
}

// advance moves training forward by dt seconds in one ascending pass
// over the active jobs.
//
// Every job observes the cluster exactly as it stood at tick start: the
// pass mutates only per-job fields (progress, waiting time, deadline
// snapshots, predictor observations, checkpoints), and the finishes —
// which free cluster resources — are deferred until every job has
// advanced, then applied in ascending job order. The freed capacity
// becomes visible at the next round, one tick later, like any other
// end-of-tick event. Cross-server bandwidth is summed into one partial
// per advShardSize jobs and the partials fold in a balanced tree, so the
// float summation order depends only on the active-job count; the dense
// oracle runs the identical pass.
func (s *Simulator) advance(dt float64) {
	still := s.activeScratch[:0]
	fin := s.finScratch[:0]
	partials := s.bwPartials[:0]
	var bw float64
	for i, j := range s.active {
		if i > 0 && i%advShardSize == 0 {
			partials = append(partials, bw)
			bw = 0
		}
		if j.Done() {
			continue
		}
		if !s.fullyPlaced(j) {
			j.WaitingTime += dt
			s.snapDeadline(j, dt, 0)
			still = append(still, j)
			continue
		}
		if j.State == job.Pending {
			j.State = job.Running
			j.EverPlaced = true
		}
		// fullyPlaced resolved the cache entry against the tick-start
		// cluster, and nothing has mutated the cluster since, so the
		// entry is valid (and SimSlot is assigned).
		c := &s.cache[j.SimSlot]
		iterSec, crossMB := c.iterSec, c.crossMB
		if f := s.stragglerFactor(j, &bw); f > 1 {
			iterSec *= f
		}
		delta := dt / iterSec
		remaining := float64(j.MaxIterations) - j.Progress
		finished := false
		if delta >= remaining {
			finished = true
			delta = remaining
		}
		old := j.Progress
		j.Progress = old + delta
		if crossMB > 0 {
			bw += crossMB * delta
		}
		s.observe(j, old)
		if s.faults != nil {
			s.checkpointJob(j)
		}
		s.snapDeadline(j, dt, delta)
		if finished {
			finishAt := s.now + (delta * iterSec)
			if finishAt > s.now+dt {
				finishAt = s.now + dt
			}
			fin = append(fin, finishRec{j, finishAt})
			continue
		}
		still = append(still, j)
	}
	if len(s.active) > 0 {
		partials = append(partials, bw)
	}
	s.counters.BandwidthMB += treeCombine(partials)
	for _, f := range fin {
		s.finishJob(f.j, f.at, job.Finished)
	}
	s.bwPartials, s.finScratch = partials, fin[:0]
	s.activeScratch = s.active[:0]
	s.active = still
}

// treeCombine folds float partials with a balanced binary midpoint-split
// reduction. The association order is a pure function of the slice
// length.
func treeCombine(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	if len(x) == 1 {
		return x[0]
	}
	mid := len(x) / 2
	return treeCombine(x[:mid]) + treeCombine(x[mid:])
}

// fullyPlaced reports whether every task of j is placed and, if so,
// resolves its iteration cost in the cache against the current cluster.
func (s *Simulator) fullyPlaced(j *job.Job) bool {
	if !s.cfg.DenseTicks && j.PlacedTasks != len(j.Tasks) {
		// Sparse mode: not fully placed, so no progress this tick — skip
		// the per-task Lookup walk computeIterCost would spend proving
		// it. The cache entry is deliberately left untouched: if it is
		// still marked valid it is stale, but every eviction bumps the
		// evicted server's epoch and epochs only increase, so the entry
		// can never pass the freshness check again before being
		// recomputed on the job's next full placement.
		return false
	}
	c := &s.cache[j.SimSlot]
	if c.valid && s.cacheFresh(c) {
		return true
	}
	return s.computeIterCost(j, c)
}

// stragglerFactor returns this tick's straggler slowdown for job j.
// Deterministic: the decision hashes (job, tick index), so runs reproduce
// exactly. With replication enabled the first-finisher replica bounds the
// slowdown at 10% of the injected penalty, and the incident pays one
// task-state transfer — charged to bw, advance's bandwidth partial, at
// the job's position in job order.
func (s *Simulator) stragglerFactor(j *job.Job, bw *float64) float64 {
	if s.cfg.StragglerProb <= 0 {
		return 1
	}
	tick := uint64(s.now / s.cfg.TickSec)
	h := (uint64(j.ID)*0x9e3779b97f4a7c15 + tick*0xbf58476d1ce4e5b9) >> 11
	u := float64(h%100000) / 100000
	if u >= s.cfg.StragglerProb {
		return 1
	}
	if s.cfg.ReplicateStragglers {
		// Replica state transfer: the largest task's partition moves.
		var maxState float64
		for _, t := range j.Tasks {
			if mb := sched.TaskStateMB(t); mb > maxState {
				maxState = mb
			}
		}
		*bw += maxState
		return 1 + (s.cfg.StragglerSlow-1)*0.1
	}
	return s.cfg.StragglerSlow
}

// observe feeds newly completed iterations to the job's learning-curve
// predictor (capped per tick to bound work for very fast jobs).
func (s *Simulator) observe(j *job.Job, oldProgress float64) {
	lo, hi := int(oldProgress)+1, int(j.Progress)
	if hi-lo > 32 {
		// Stride so the predictor still sees the curve shape.
		stride := (hi - lo) / 32
		for i := lo; i <= hi; i += stride + 1 {
			j.Predictor.Observe(i, j.Curve.ObservedAccuracy(i))
		}
		j.Predictor.Observe(hi, j.Curve.ObservedAccuracy(hi))
		return
	}
	for i := lo; i <= hi; i++ {
		j.Predictor.Observe(i, j.Curve.ObservedAccuracy(i))
	}
}

// snapDeadline records accuracy-at-deadline when the deadline falls inside
// this tick. delta is the progress made during the tick, used to
// interpolate the iteration count at the deadline instant.
func (s *Simulator) snapDeadline(j *job.Job, dt, delta float64) {
	if j.DeadlineSnapped || j.Deadline > s.now+dt {
		return
	}
	frac := 0.0
	if dt > 0 && j.Deadline > s.now {
		frac = (j.Deadline - s.now) / dt
	}
	progressAtDeadline := j.Progress - delta*(1-frac)
	iters := int(progressAtDeadline)
	if iters > j.MaxIterations {
		iters = j.MaxIterations
	}
	j.AccuracyAtDeadline = j.Curve.Accuracy(iters)
	j.DeadlineSnapped = true
}

// finishJob finalises a job: frees resources, stamps outcome fields and
// retires it. The job stays reachable
// through recentCompleted until its feedback is delivered.
func (s *Simulator) finishJob(j *job.Job, at float64, state job.State) {
	for _, t := range j.Tasks {
		if s.cl.Remove(t.ID.Ref()) != nil {
			j.PlacedTasks--
		}
		delete(s.waiting, t.ID)
	}
	s.ctx.DropPending(j)
	j.State = state
	j.FinishTime = at
	s.recentCompleted = append(s.recentCompleted, j)
	if !j.DeadlineSnapped {
		// Finished before the deadline: accuracy by deadline is the final
		// accuracy (training stops at completion).
		j.AccuracyAtDeadline = j.Accuracy()
		j.DeadlineSnapped = true
	}
	s.retire(j)
}

// countOverloads accumulates the number of overloaded servers this tick
// (Fig 8a's "server overload occurrences").
func (s *Simulator) countOverloads() {
	for _, srv := range s.cl.Servers() {
		if srv.Overloaded(s.cfg.HR) {
			s.counters.OverloadOccurrences++
		}
	}
}

// truncate force-finishes everything still live at the horizon: first
// the active jobs in list order, then every not-yet-admitted submission
// in arrival order. The remaining records are drained one at a time,
// each materialised, stopped and retired before the next is read, so
// truncation never holds more than one un-admitted job.
func (s *Simulator) truncate() error {
	for _, j := range s.active {
		s.finishJob(j, s.cfg.MaxSimSec, job.Stopped)
		s.counters.Truncated++
	}
	s.active = nil
	for {
		if _, ok := s.peekArrival(); !ok {
			return nil
		}
		j, err := s.nextArrival()
		if err != nil {
			return err
		}
		j.State = job.Pending
		s.finishJob(j, s.cfg.MaxSimSec, job.Stopped)
		s.counters.Truncated++
	}
}

// Now returns the current simulation time (exposed for tests).
func (s *Simulator) Now() float64 { return s.now }

// Tick returns the number of ticks executed so far, restores included
// (exposed for tests).
func (s *Simulator) Tick() int { return s.tick }

// Parked returns the jobs currently sitting out a retry backoff, in
// failure-event order (exposed for tests).
func (s *Simulator) Parked() []*job.Job { return s.parked }

// SetStopAtTick adjusts the crash-injection limit of a constructed
// simulator, letting the chaos harness and tests run one instance in
// multiple Run segments (Run continues from where the last segment
// stopped).
func (s *Simulator) SetStopAtTick(n int) { s.cfg.StopAtTick = n }

// Cluster exposes the cluster (for tests and tools).
func (s *Simulator) Cluster() *cluster.Cluster { return s.cl }

// The accessors below exist for hosts that drive RunStep directly (the
// online service) and for tests. All of them are read-only views of
// single-writer state: they must be called from the goroutine that owns
// the simulator, and returned slices are valid only until the next
// RunStep.

// ActiveJobs returns the live (admitted, not yet finalised) jobs in
// admission order, which is ascending SimIndex. Callers must not mutate
// the slice or the jobs.
func (s *Simulator) ActiveJobs() []*job.Job { return s.active }

// Counters returns a copy of the run's event counters so far.
func (s *Simulator) Counters() metrics.Counters { return s.counters }

// Tallies returns the per-job completion tallies accumulated at
// retirement, one per retired job.
func (s *Simulator) Tallies() []metrics.Tally { return s.tallies }

// Consumed returns the number of submissions consumed from the source
// so far (admitted plus rejected); it is also the SimIndex
// the next arrival will receive.
func (s *Simulator) Consumed() int { return s.pending }

// NumWaiting returns the number of tasks currently queued for
// placement.
func (s *Simulator) NumWaiting() int { return len(s.waiting) }

// SyncSourceTotal re-reads the source length into the run's submission
// total. The total sizes the snapshot fingerprint, so a host feeding
// the simulator from a growing live queue must call this before
// Snapshot — otherwise a later restore against the longer queue would
// be refused as a workload mismatch. The total only grows; batch runs
// over fixed traces are unaffected.
func (s *Simulator) SyncSourceTotal() {
	if n := s.cfg.Source.Len(); n > s.total {
		s.total = n
	}
}

// CancelJob aborts a live job through the existing kill path: surviving
// placements are released, queued tasks withdrawn, the last durable
// checkpoint retained (evict-to-checkpoint), and the job finalised as
// Killed at the current simulation time. Unlike failJob this is an
// operator action, not fault recovery: no retry budget is charged and
// no failure counters move. No-op if the job is already done.
func (s *Simulator) CancelJob(j *job.Job) {
	if j.Done() {
		return
	}
	if s.faults != nil {
		// Persist the most recent checkpoint boundary the job crossed, as
		// a real cluster's final pre-eviction checkpoint would.
		s.checkpointJob(j)
	}
	// Journal the cancellation so incremental schedulers drop whatever
	// rankings they cached for the job.
	s.ctx.MarkDirty(j)
	s.finishJob(j, s.now, job.Killed)
	s.pruneActive()
}

// SetRetireHook registers fn to observe each job at retirement. Pass nil to clear. The hook runs synchronously inside the
// simulation step and must not mutate simulator or job state.
func (s *Simulator) SetRetireHook(fn func(*job.Job)) { s.onRetire = fn }

// SetRoundTimingHook registers fn to receive the wall-clock duration of
// each scheduling round, called synchronously right after Schedule()
// returns. Pass nil to clear. Telemetry only: the hook must not mutate
// simulator or job state, and the duration must never feed simulation
// state — it is the per-round source behind the online service's
// decision-latency histogram.
func (s *Simulator) SetRoundTimingHook(fn func(seconds float64)) { s.onRoundTime = fn }
