// Package sched defines the scheduler interface of the simulator and the
// transactional context through which schedulers act on the cluster:
// placing queued tasks, migrating or evicting running tasks, and stopping
// jobs (MLF-C). The simulator builds a Context each scheduling round
// (every minute, §4.1); the scheduler mutates it; the simulator reads back
// the action log for metric accounting.
//
// Determinism: the Context exposes cluster state only through sorted,
// index-ordered accessors, so a scheduler that consumes it sequentially
// is reproducible by construction. The package is enrolled in the lint
// DeterministicPaths registry (mapiter, noclock, sharedcapture), plus
// the repo-wide epochguard, floatcmp and pkgdoc checks.
package sched

import (
	"fmt"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/snapshot"
)

// Scheduler is one scheduling policy (MLF-H, MLF-RL, MLFS or a baseline).
// Schedule is invoked once per scheduling round and applies its decisions
// through ctx. Implementations may be stateful across rounds but are
// always called from a single goroutine.
type Scheduler interface {
	Name() string
	Schedule(ctx *Context)
}

// Snapshotter is the per-scheduler hook of the crash-consistent
// snapshot layer: EncodeState serialises every piece of state the
// scheduler carries across rounds (policy weights, optimiser moments,
// staged decisions, RNG positions, priority history — whatever exists),
// and DecodeState restores a freshly constructed scheduler of the same
// configuration to that state. Stateless policies implement both as
// no-ops. The contract is bit-identity: a restored scheduler must emit
// exactly the decisions the original would have from the snapshot point
// on. Every scheduler in the registry implements this — the simulator
// refuses to snapshot or resume a run whose scheduler does not.
type Snapshotter interface {
	EncodeState(w *snapshot.Writer)
	DecodeState(r *snapshot.Reader) error
}

// Context is the scheduler's view of one round. All mutations go through
// its methods so the simulator can account bandwidth, migrations and
// stops.
type Context struct {
	// Now is the simulation time in seconds.
	Now float64
	// Cluster is the live cluster state. Schedulers may probe it freely;
	// mutations must go through Place/Migrate/Evict.
	Cluster *cluster.Cluster
	// HR is the per-resource server overload threshold h_r; HS is the
	// cluster overload threshold h_s (both 0.9 by default, §4.1).
	HR, HS float64

	jobs    []*job.Job
	waiting map[job.TaskID]*job.Task
	byRef   map[cluster.TaskRef]*job.Task

	// candScratch memoises the underloaded-candidate set by (cluster
	// epoch, HR). Gang placement queries candidates once per queued task;
	// while the cluster is untouched — every failed gang attempt in a
	// backlog scan — the memo turns that from a server rescan plus an
	// allocation per task into a slice reuse, making a full backlog pass
	// O(backlog + servers) instead of O(backlog × servers).
	candScratch []int
	candEpoch   uint64
	candHR      float64
	candValid   bool

	// gangScratch holds PlaceGang's partial-placement list between
	// calls so backlog scans stay allocation-free; attempt is the
	// cluster-side undo-verify log that lets a failed gang attempt rewind
	// the epochs it bumped (see cluster.AttemptLog).
	gangScratch []*job.Task
	attempt     cluster.AttemptLog

	// Round state (see incremental.go): the sorted pending list, the
	// double-buffered change journal and the no-fit dominance frontier.
	// All derived, rebuilt by RebuildRoundState on restore.
	pendingList []*job.Job
	pendingLive int
	pendScratch []*job.Job
	dirtyAccum  []*job.Job
	dirtyRound  []*job.Job
	nofit       []nofitShape
	nofitEpoch  uint64
	nofitHR     float64
	nofitValid  bool

	// Round feedback, filled by the simulator for reward-driven policies
	// (MLF-RL, §3.4): jobs completed since the previous round and the
	// cross-server traffic generated since then.
	Completed         []*job.Job
	RecentBandwidthMB float64

	// Action log, read by the simulator.
	Placements int
	Migrations int
	Evictions  int
	// MigratedMB is the task-state bytes moved by migrations.
	MigratedMB float64
	Stopped    []*job.Job
	// Skipped marks that the scheduler proved the round a no-op and
	// skipped its decision logic (see RoundSkipper).
	Skipped bool
}

// NewContext assembles a round context. jobs must contain every
// non-finished job; waiting the tasks currently queued (unplaced).
func NewContext(now float64, cl *cluster.Cluster, jobs []*job.Job, waiting []*job.Task, hr, hs float64) *Context {
	ctx := &Context{
		Now:     now,
		Cluster: cl,
		HR:      hr,
		HS:      hs,
		jobs:    jobs,
		waiting: make(map[job.TaskID]*job.Task, len(waiting)),
		byRef:   make(map[cluster.TaskRef]*job.Task),
	}
	for _, t := range waiting {
		ctx.waiting[t.ID] = t
	}
	for _, j := range jobs {
		for _, t := range j.Tasks {
			ctx.byRef[t.ID.Ref()] = t
		}
	}
	ctx.RebuildRoundState()
	return ctx
}

// Reset re-primes the context for a new scheduling round, reusing the
// task index (byRef) built at construction time: tasks of jobs not passed
// to NewContext are unknown to the reset context. The waiting map is
// shared with the caller rather than copied — Place removes entries from
// it and Evict adds them, so after Schedule returns it is already the
// up-to-date queue. This is what keeps the simulator's per-tick hot path
// allocation-free: one context lives for the whole run.
func (c *Context) Reset(now float64, jobs []*job.Job, waiting map[job.TaskID]*job.Task) {
	c.Now = now
	c.jobs = jobs
	c.waiting = waiting
	c.Completed = nil
	c.RecentBandwidthMB = 0
	c.Placements = 0
	c.Migrations = 0
	c.Evictions = 0
	c.MigratedMB = 0
	c.Stopped = c.Stopped[:0]
	c.Skipped = false
}

// Jobs returns every non-finished job, ordered by id.
func (c *Context) Jobs() []*job.Job { return c.jobs }

// NumWaiting returns the queue length.
func (c *Context) NumWaiting() int { return len(c.waiting) }

// IsWaiting reports whether task t is queued.
func (c *Context) IsWaiting(t *job.Task) bool {
	_, ok := c.waiting[t.ID]
	return ok
}

// TaskByRef resolves a cluster placement back to its task.
func (c *Context) TaskByRef(r cluster.TaskRef) *job.Task { return c.byRef[r] }

// AddJob indexes the tasks of a newly materialised job so TaskByRef can
// resolve its placements — the streaming-admission counterpart of the
// bulk index NewContext builds. Idempotent for already-indexed jobs.
func (c *Context) AddJob(j *job.Job) {
	for _, t := range j.Tasks {
		c.byRef[t.ID.Ref()] = t
	}
}

// ForgetJob drops a retired job's tasks from the task index. The
// simulator calls it when a job leaves every hot set (finished or
// killed, feedback delivered): without it the index grows with total
// submissions rather than live jobs, which at trace scale is the
// difference between a bounded map and millions of dead entries.
func (c *Context) ForgetJob(j *job.Job) {
	for _, t := range j.Tasks {
		delete(c.byRef, t.ID.Ref())
	}
}

// Place assigns queued task t to (server, device). It fails when t is not
// queued or the indices are invalid.
func (c *Context) Place(t *job.Task, server, device int) error {
	if _, ok := c.waiting[t.ID]; !ok {
		return fmt.Errorf("sched: task %d is not in the queue", t.ID)
	}
	if err := c.Cluster.Place(t.ID.Ref(), server, device, t.Demand, t.GPUShare); err != nil {
		return err
	}
	delete(c.waiting, t.ID)
	t.Job.PlacedTasks++
	c.Placements++
	c.MarkDirty(t.Job)
	if t.Job.PlacedTasks == len(t.Job.Tasks) {
		c.DropPending(t.Job)
	}
	return nil
}

// Migrate moves placed task t to (server, device) directly, paying the
// task-state transfer (§3.3.3: chosen migration tasks are moved virtually
// to the queue, then directly to the scheduled server).
func (c *Context) Migrate(t *job.Task, server, device int) error {
	p := c.Cluster.Lookup(t.ID.Ref())
	if p == nil {
		return fmt.Errorf("sched: task %d is not placed", t.ID)
	}
	if p.Server == server && p.Device == device {
		return nil
	}
	// Move rolls back to the original placement when the destination
	// refuses the task.
	if err := c.Cluster.Move(t.ID.Ref(), server, device, t.Demand, t.GPUShare); err != nil {
		return err
	}
	c.Migrations++
	c.MigratedMB += TaskStateMB(t)
	return nil
}

// Evict removes placed task t from the cluster and returns it to the
// queue (no destination had room, §3.3.3).
func (c *Context) Evict(t *job.Task) error {
	if c.Cluster.Remove(t.ID.Ref()) == nil {
		return fmt.Errorf("sched: task %d is not placed", t.ID)
	}
	t.QueuedAt = c.Now
	c.waiting[t.ID] = t
	t.Job.PlacedTasks--
	c.Evictions++
	c.MarkDirty(t.Job)
	c.NotePending(t.Job)
	return nil
}

// EvictJob preempts a whole job: every placed task returns to the queue,
// freeing all of the job's resources at once. Schedulers that time-share
// at job granularity (SLAQ's per-epoch quality-driven reallocation, the
// Borg fair scheduler) preempt this way; progress is preserved.
func (c *Context) EvictJob(j *job.Job) int {
	evicted := 0
	for _, t := range j.Tasks {
		if c.Cluster.Lookup(t.ID.Ref()) != nil {
			if err := c.Evict(t); err == nil {
				evicted++
			}
		}
	}
	return evicted
}

// StopJob marks job j for termination by the load controller. The
// simulator finalises the job and frees its tasks after the round.
func (c *Context) StopJob(j *job.Job) {
	for _, s := range c.Stopped {
		if s == j {
			return
		}
	}
	c.Stopped = append(c.Stopped, j)
}

// TaskStateMB estimates the bytes moved when migrating a task: its model
// partition (4 bytes per parameter, Params in millions) plus optimiser
// state of the same size.
func TaskStateMB(t *job.Task) float64 {
	return t.Params * 4 * 2
}

// QueuedTasksOf returns the queued tasks belonging to job j, in task order.
func (c *Context) QueuedTasksOf(j *job.Job) []*job.Task {
	return c.QueuedTasksInto(j, nil)
}

// QueuedTasksInto appends j's queued tasks to buf and returns it: the
// allocation-free form of QueuedTasksOf for scheduler round loops that
// hold a reusable scratch slice.
func (c *Context) QueuedTasksInto(j *job.Job, buf []*job.Task) []*job.Task {
	for _, t := range j.Tasks {
		if c.IsWaiting(t) {
			buf = append(buf, t)
		}
	}
	return buf
}

// FullyPlaced reports whether every task of j is placed.
func (c *Context) FullyPlaced(j *job.Job) bool {
	for _, t := range j.Tasks {
		if c.Cluster.Lookup(t.ID.Ref()) == nil {
			return false
		}
	}
	return true
}

// Overloaded reports whether the system is overloaded per §3.5: tasks are
// queued, or the cluster overload degree exceeds h_s.
func (c *Context) Overloaded() bool {
	return len(c.waiting) > 0 || c.Cluster.OverloadDegree() > c.HS
}
