package core_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"mlfs"
	"mlfs/internal/core"
	"mlfs/internal/job"
	"mlfs/internal/sched"
)

// These tests hold each cache of the scheduling round to its proof
// obligation on every round of real runs, the way the simulator's
// hot-set tests hold its tick gates:
//
//   - (a) the maintained pending list: PendingJobs equals a scan of the
//     jobs with a queued task, ordered by lowest queued task id;
//   - (b) the change journal and the priority cache: a PriorityEngine
//     fed the delivered Dirty journal gives, for every task of every
//     live job, the same bits as the reference ComputePriorities;
//   - (c) the no-fit frontier: every queued task it declares hopeless at
//     the current (epoch, HR) — the recorded shapes among them — fits
//     no underloaded server's least-loaded device.
//
// (a) and (c) run before and after every Schedule; (b) runs right after
// the journal is delivered, the point at which the engine computes the
// round's priorities (events inside the round are journalled for the
// next delivery). A broken cache shows here on the round it goes wrong,
// whether or not it ever changes a result.

// roundChecker wraps a scheduler, feeds its own PriorityEngine the
// journal the simulator delivers, forwards the journal to the wrapped
// scheduler when it consumes one, and runs the checks around Schedule.
type roundChecker struct {
	inner sched.Scheduler
	t     *testing.T
	eng   core.PriorityEngine
	round int

	under  []int       // scratch: underloaded servers
	shapes []*job.Task // scratch: one task per shape verified this check

	// Non-vacuity counts.
	pendingRounds int // checks that saw a non-empty pending list
	hopeless      int // queued tasks the frontier declared hopeless
}

func (c *roundChecker) Name() string { return c.inner.Name() }

func (c *roundChecker) Dirty(jobs []*job.Job) {
	c.eng.Dirty(jobs)
	if inc, ok := c.inner.(sched.Incremental); ok {
		inc.Dirty(jobs)
	}
}

func (c *roundChecker) Schedule(ctx *sched.Context) {
	c.round++
	c.checkPriorities(ctx)
	c.checkPending(ctx, "before")
	c.checkFrontier(ctx, "before")
	c.inner.Schedule(ctx)
	c.checkPending(ctx, "after")
	c.checkFrontier(ctx, "after")
}

// checkPending is obligation (a).
func (c *roundChecker) checkPending(ctx *sched.Context, when string) {
	c.t.Helper()
	type entry struct {
		j   *job.Job
		min job.TaskID
	}
	var scan []entry
	for _, j := range ctx.Jobs() {
		for _, t := range j.Tasks {
			if ctx.IsWaiting(t) {
				scan = append(scan, entry{j, t.ID})
				break
			}
		}
	}
	slices.SortStableFunc(scan, func(a, b entry) int { return cmp.Compare(a.min, b.min) })
	got := ctx.PendingJobs()
	if len(got) > 0 {
		c.pendingRounds++
	}
	ok := len(got) == len(scan)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i] == scan[i].j
	}
	if !ok {
		want := make([]job.ID, len(scan))
		for i, e := range scan {
			want[i] = e.j.ID
		}
		have := make([]job.ID, len(got))
		for i, j := range got {
			have[i] = j.ID
		}
		c.t.Fatalf("round %d %s Schedule (t=%v): PendingJobs %v, scan %v", c.round, when, ctx.Now, have, want)
	}
}

// checkPriorities is obligation (b).
func (c *roundChecker) checkPriorities(ctx *sched.Context) {
	c.t.Helper()
	params := core.DefaultPriorityParams()
	got := c.eng.Compute(ctx, params)
	want := core.ComputePriorities(ctx, params)
	for _, j := range ctx.Jobs() {
		if j.Done() {
			continue
		}
		for _, t := range j.Tasks {
			if math.Float64bits(got.Of(t)) != math.Float64bits(want.Of(t)) ||
				math.Float64bits(got.BaseOf(t)) != math.Float64bits(want.BaseOf(t)) {
				c.t.Fatalf("round %d (t=%v): job %d task %d: engine P=%v base=%v, reference P=%v base=%v",
					c.round, ctx.Now, j.ID, t.ID, got.Of(t), got.BaseOf(t), want.Of(t), want.BaseOf(t))
			}
		}
	}
}

// checkFrontier is obligation (c). GangHopeless is the query the
// schedulers make; on a frontier keyed to an older (epoch, HR) it only
// clears and re-keys it, which the next query would do anyway. Tasks of
// one shape share a verdict, so each shape is scanned once per check.
func (c *roundChecker) checkFrontier(ctx *sched.Context, when string) {
	c.t.Helper()
	cl := ctx.Cluster
	c.under = cl.AppendUnderloaded(c.under[:0], ctx.HR)
	c.shapes = c.shapes[:0]
	for _, j := range ctx.Jobs() {
		for _, t := range j.Tasks {
			if !ctx.IsWaiting(t) || !ctx.GangHopeless(t) {
				continue
			}
			c.hopeless++
			if slices.ContainsFunc(c.shapes, func(s *job.Task) bool {
				return s.Demand == t.Demand && s.GPUShare == t.GPUShare
			}) {
				continue
			}
			c.shapes = append(c.shapes, t)
			for _, si := range c.under {
				if cl.FitsLeastLoaded(si, t.Demand, t.GPUShare, ctx.HR) {
					c.t.Fatalf("round %d %s Schedule (t=%v): task %d of job %d is declared hopeless but fits server %d",
						c.round, when, ctx.Now, t.ID, j.ID, si)
				}
			}
		}
	}
}

// TestRoundCachesEveryRound runs the checks over {60-job generated
// trace, synthetic Philly stream} on the paper-real cluster × nine
// schedulers × MTTF {∞, 6 h} × demand wobble {default, off}.
func TestRoundCachesEveryRound(t *testing.T) {
	workloads := []struct {
		name string
		opts func() mlfs.Options
	}{
		{"trace", func() mlfs.Options { return mlfs.Options{Jobs: 60, Seed: 1} }},
		{"stream", func() mlfs.Options {
			return mlfs.Options{Source: mlfs.SyntheticPhillySource(60, 1, mlfs.DefaultTraceDuration(60))}
		}},
	}
	schedulers := []string{"fifo", "srtf", "mlf-h", "mlf-rl", "mlfs", "rl", "tiresias", "gandiva", "tensorflow"}
	// Cleanup runs once every parallel cell has finished.
	var hopeless atomic.Int64
	t.Cleanup(func() {
		if hopeless.Load() == 0 {
			t.Error("vacuous: no cell's frontier declared a queued task hopeless")
		}
	})
	for _, wl := range workloads {
		for _, name := range schedulers {
			for _, mttf := range []float64{0, 21600} {
				for _, wobble := range []float64{0, -1} {
					wl, name, mttf, wobble := wl, name, mttf, wobble
					wname := "default"
					if wobble < 0 {
						wname = "off"
					}
					t.Run(fmt.Sprintf("%s/%s/mttf=%.0f/wobble=%s", wl.name, name, mttf, wname), func(t *testing.T) {
						t.Parallel()
						inner, err := mlfs.NewScheduler(name, mlfs.SchedulerOptions{Seed: 1, ImitationRounds: 30})
						if err != nil {
							t.Fatal(err)
						}
						chk := &roundChecker{inner: inner, t: t}
						opts := wl.opts()
						opts.Sched = chk
						opts.DemandWobble = wobble
						if mttf > 0 {
							opts.Failures = mlfs.FailureConfig{MTTFSec: mttf, MTTRSec: 600, Seed: 5}
						}
						if _, err := mlfs.Run(opts); err != nil {
							t.Fatal(err)
						}
						hopeless.Add(int64(chk.hopeless))
						t.Logf("%d rounds, %d checks with pending jobs, %d hopeless tasks checked", chk.round, chk.pendingRounds, chk.hopeless)
						if chk.round == 0 || chk.pendingRounds == 0 {
							t.Fatalf("vacuous: %d rounds, %d with pending jobs", chk.round, chk.pendingRounds)
						}
					})
				}
			}
		}
	}
}
