package sim

import (
	"math"
	"reflect"
	"testing"

	"mlfs/internal/job"
	"mlfs/internal/sched"
	"mlfs/internal/trace"
)

// faultCfg is the shared base config for fault tests: a small cluster
// under an aggressive failure process so every mechanism triggers
// within a short run.
func faultCfg(jobs int, seed int64) Config {
	return Config{
		Cluster:   testClusterCfg(),
		Source:    smallSource(jobs, seed),
		Scheduler: fifoGang{},
		Failures:  FailureConfig{MTTFSec: 2 * 3600, MTTRSec: 600, Seed: 9},
	}
}

func TestFailureRunCompletes(t *testing.T) {
	res := run(t, faultCfg(20, 42))
	c := res.Counters
	if c.ServerFailures == 0 {
		t.Fatal("no server failures injected with MTTF=2h")
	}
	if c.ServerRepairs == 0 {
		t.Fatal("no repairs")
	}
	if c.FailureEvictions == 0 || c.JobRestarts == 0 {
		t.Fatalf("failures never hit a running job: evictions=%d restarts=%d",
			c.FailureEvictions, c.JobRestarts)
	}
	if c.WorkLostIters <= 0 {
		t.Fatal("restarts lost no work — checkpoint rollback not exercised")
	}
	for _, j := range res.JCTs {
		if j < 0 {
			t.Fatalf("negative JCT %v", j)
		}
	}
}

// TestFailureDisabledBitIdentical is the zero-config guarantee: a zeroed
// FailureConfig must reproduce the failure-free run bit for bit.
func TestFailureDisabledBitIdentical(t *testing.T) {
	base := Config{Cluster: testClusterCfg(), Source: smallSource(15, 7), Scheduler: fifoGang{}}
	a := run(t, base)
	withZero := base
	withZero.Source = smallSource(15, 7)
	withZero.Failures = FailureConfig{} // explicit zero value
	b := run(t, withZero)
	a.Counters.SchedSeconds, b.Counters.SchedSeconds = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("zero FailureConfig changed results:\n%v\n%v", a, b)
	}
}

// TestCheckpointReplayBound: rolling back to the last checkpoint loses
// at most K−1 completed iterations plus the in-flight fractional one.
func TestCheckpointReplayBound(t *testing.T) {
	s, err := New(faultCfg(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	k := float64(s.cfg.Failures.CheckpointEveryIters)
	checked := 0
	for i := 0; i < 5000 && (s.pending < s.total || len(s.active) > 0); i++ {
		s.admitArrivals()
		s.step(s.cfg.TickSec)
		for _, j := range s.active {
			if j.CheckpointProgress > j.Progress {
				t.Fatalf("checkpoint %v ahead of progress %v", j.CheckpointProgress, j.Progress)
			}
			if lost := j.Progress - j.CheckpointProgress; lost >= k+1 {
				// Progress−Checkpoint < K+1: at most K−1 whole completed
				// iterations plus the current fractional one are at risk.
				t.Fatalf("job %d would replay %.2f iters, bound is <%v", j.ID, lost, k+1)
			}
			if j.CheckpointProgress != math.Floor(j.CheckpointProgress/k)*k {
				t.Fatalf("checkpoint %v not a multiple of K=%v", j.CheckpointProgress, k)
			}
			if j.Progress > 0 {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no progressing jobs observed")
	}
}

// TestRetryBudgetKills: with a hostile failure process and zero budget
// headroom, jobs exceed MaxRetries and are Killed — and killed jobs
// count in the metrics with their achieved state.
func TestRetryBudgetKills(t *testing.T) {
	cfg := faultCfg(12, 21)
	cfg.Failures = FailureConfig{MTTFSec: 900, MTTRSec: 7200, MaxRetries: 1, Seed: 4}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retired := collectRetired(s)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.JobsKilled == 0 {
		t.Fatal("no kills under MTTF=15min, MaxRetries=1")
	}
	killed := 0
	for _, j := range *retired {
		if j.State == job.Killed {
			killed++
			if !j.Done() {
				t.Fatalf("killed job %d not Done", j.ID)
			}
			if j.Retries <= cfg.Failures.MaxRetries {
				t.Fatalf("job %d killed with %d retries ≤ budget %d", j.ID, j.Retries, cfg.Failures.MaxRetries)
			}
		}
	}
	if killed != res.Counters.JobsKilled {
		t.Fatalf("state/counter mismatch: %d Killed jobs, counter %d", killed, res.Counters.JobsKilled)
	}
}

// coLocatedSim builds a simulator with fault injection enabled but an
// MTTF far beyond any horizon (the only failures are the ones a test
// injects by hand), admits its single multi-task job and packs every
// task of it onto server 0.
func coLocatedSim(t *testing.T, failures FailureConfig) (*Simulator, *job.Job) {
	t.Helper()
	src := oneJobSource(trace.Record{
		JobID: 1, ArrivalSec: 0, GPUs: 4, Family: 2, /* MLP */
		Comm: job.AllReduce, Urgency: 1, TargetFrac: 0.8, TrainDataMB: 500,
		CommVolPS: 60, CommVolWW: 60, DeadlineSlackSec: 24 * 3600, Seed: 7,
	})
	s, err := New(Config{Cluster: testClusterCfg(), Source: src, Scheduler: fifoGang{},
		Failures: failures})
	if err != nil {
		t.Fatal(err)
	}
	j := admitFirst(t, s)
	if len(j.Tasks) < 2 || len(j.Tasks) > 4 {
		t.Fatalf("setup: want 2–4 tasks to co-locate on one server, got %d", len(j.Tasks))
	}
	for i, tk := range j.Tasks {
		if err := s.cl.Place(tk.ID.Ref(), 0, i, tk.Demand, tk.GPUShare); err != nil {
			t.Fatalf("setup: placing task %d on server 0: %v", tk.ID, err)
		}
	}
	return s, j
}

// TestCoLocatedFailureSingleRetry: FailServer returns one placement per
// evicted task, but one failure event must charge an affected job
// exactly one retry — not one per placement, which would multiply the
// backoff 2^(n−1)-fold, park the job n times and kill a 4-task job on
// its first failure under the default budget of 3. Regression test for
// the per-event job dedup in handleEvictions.
func TestCoLocatedFailureSingleRetry(t *testing.T) {
	s, j := coLocatedSim(t, FailureConfig{MTTFSec: 1e12, Seed: 1})
	evicted := s.cl.FailServer(0)
	if len(evicted) != len(j.Tasks) {
		t.Fatalf("setup: want %d co-located evictions, got %d", len(j.Tasks), len(evicted))
	}
	s.handleEvictions(evicted)
	if j.Retries != 1 {
		t.Fatalf("one failure event charged %d retries", j.Retries)
	}
	if s.counters.JobRestarts != 1 {
		t.Fatalf("JobRestarts = %d after one failure event", s.counters.JobRestarts)
	}
	if s.counters.JobsKilled != 0 {
		t.Fatalf("job killed by a single failure (budget %d)", s.cfg.Failures.MaxRetries)
	}
	if len(s.parked) != 1 {
		t.Fatalf("job parked %d times", len(s.parked))
	}
	// Retry 1 waits exactly RetryBackoffSec·2^0: a compounded backoff
	// would land further out.
	if want := s.now + s.cfg.Failures.RetryBackoffSec; j.NextRetryAt != want {
		t.Fatalf("backoff compounded: NextRetryAt = %v, want %v", j.NextRetryAt, want)
	}
}

// TestKillOnFirstFailureSentinel: MaxRetries < 0 resolves to a zero
// retry budget, and the kill path is also charged once per event — a
// multi-task co-located job dies exactly once.
func TestKillOnFirstFailureSentinel(t *testing.T) {
	s, j := coLocatedSim(t, FailureConfig{MTTFSec: 1e12, MaxRetries: -1, Seed: 1})
	if s.cfg.Failures.MaxRetries != 0 {
		t.Fatalf("MaxRetries sentinel -1 resolved to %d, want 0", s.cfg.Failures.MaxRetries)
	}
	s.handleEvictions(s.cl.FailServer(0))
	if j.State != job.Killed {
		t.Fatalf("job state %v, want Killed on first failure with zero budget", j.State)
	}
	if s.counters.JobsKilled != 1 {
		t.Fatalf("JobsKilled = %d for one failure event", s.counters.JobsKilled)
	}
	if j.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", j.Retries)
	}
}

// TestFailureConfigDefaults pins the zero-means-default convention and
// the MaxRetries sentinel mapping.
func TestFailureConfigDefaults(t *testing.T) {
	d := FailureConfig{MTTFSec: 1}.withDefaults()
	if d.MTTRSec != 600 || d.CheckpointEveryIters != 100 || d.MaxRetries != 3 ||
		d.RetryBackoffSec != 60 || d.Seed != 1 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	if got := (FailureConfig{MTTFSec: 1, MaxRetries: -1}).withDefaults().MaxRetries; got != 0 {
		t.Fatalf("MaxRetries -1 → %d, want 0 (kill on first failure)", got)
	}
	if got := (FailureConfig{MTTFSec: 1, MaxRetries: 2}).withDefaults().MaxRetries; got != 2 {
		t.Fatalf("explicit MaxRetries 2 overridden to %d", got)
	}
}

// idleSched is a scheduler that never places anything: the extreme
// counterpoint to fifoGang for proving the failure trace does not
// depend on placement decisions.
type idleSched struct{}

func (idleSched) Name() string            { return "idle-test" }
func (idleSched) Schedule(*sched.Context) {}

// TestFailureTraceSchedulerIndependent: at a fixed simulation horizon,
// two schedulers with opposite behaviour observe the identical
// failure/repair event stream — FailureConfig seeds a process that is a
// pure function of (seed, server count, MTTF, MTTR), untouched by
// placement.
func TestFailureTraceSchedulerIndependent(t *testing.T) {
	mk := func(s sched.Scheduler) Config {
		c := faultCfg(20, 42)
		c.Scheduler = s
		c.MaxSimSec = 3000 // both runs truncate at the same horizon
		c.Failures.MTTFSec = 1200
		return c
	}
	a := run(t, mk(fifoGang{}))
	b := run(t, mk(idleSched{}))
	if a.Counters.Truncated == 0 || b.Counters.Truncated == 0 {
		t.Fatal("horizon too generous: runs did not truncate, horizons differ")
	}
	if a.Counters.ServerFailures != b.Counters.ServerFailures ||
		a.Counters.ServerRepairs != b.Counters.ServerRepairs {
		t.Fatalf("failure trace depends on the scheduler: fifo saw %d/%d, idle saw %d/%d",
			a.Counters.ServerFailures, a.Counters.ServerRepairs,
			b.Counters.ServerFailures, b.Counters.ServerRepairs)
	}
	if a.Counters.ServerFailures == 0 {
		t.Fatal("vacuous: no failures within the horizon")
	}
}

// TestBackoffParksJobs: after a failure a job waits out its exponential
// backoff — its tasks are neither placed nor queued until NextRetryAt.
func TestBackoffParksJobs(t *testing.T) {
	cfg := faultCfg(10, 17)
	cfg.Failures.RetryBackoffSec = 10 * cfg.TickSec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawParked := false
	for i := 0; i < 5000 && (s.pending < s.total || len(s.active) > 0); i++ {
		s.admitArrivals()
		s.step(s.cfg.TickSec)
		for _, j := range s.parked {
			sawParked = true
			// releaseParked runs at tick start; s.now has already advanced
			// past it here, so a parked job's retry time must lie beyond
			// the start of the tick just executed.
			if j.NextRetryAt <= s.now-s.cfg.TickSec {
				t.Fatalf("job %d still parked past NextRetryAt=%v at t=%v", j.ID, j.NextRetryAt, s.now)
			}
			for _, tk := range j.Tasks {
				if s.cl.Lookup(tk.ID.Ref()) != nil {
					t.Fatalf("parked job %d has task %d placed", j.ID, tk.ID)
				}
				if _, ok := s.waiting[tk.ID]; ok {
					t.Fatalf("parked job %d has task %d in the waiting queue", j.ID, tk.ID)
				}
			}
		}
	}
	if !sawParked {
		t.Skip("failure trace never parked a job in this configuration")
	}
}
