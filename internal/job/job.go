// Package job models ML training jobs the way the MLFS paper does (§3.2):
// a job trains for up to I_max iterations under data parallelism (D
// mini-batch replicas) and model parallelism (P model partitions). Each
// (replica, partition) pair is a task running in one worker; tasks form a
// dependency DAG along which activations flow, and learned parameters are
// accumulated either through a parameter server or all-reduce.
//
// The package owns job identity, task DAG construction, spatial features
// (partition sizes, dependency structure) and training progress; it does
// not know about servers or scheduling. Jobs are owned and mutated by a
// single simulator goroutine and are not safe for concurrent use.
//
// Determinism: job and task construction is a pure function of the trace
// record — no clocks, no unseeded randomness — and the simulator's
// bit-identity tests pin it. The package is enrolled in the lint
// DeterministicPaths registry (mapiter, noclock, sharedcapture), plus
// the repo-wide epochguard, floatcmp and pkgdoc checks.
package job

import (
	"fmt"
	"math"

	"mlfs/internal/cluster"
	"mlfs/internal/learncurve"
)

// ID identifies a job.
type ID int64

// TaskID identifies a task globally (across all jobs). It doubles as the
// cluster.TaskRef of the task's placement.
type TaskID int64

// Ref converts the task id to a cluster task reference.
func (t TaskID) Ref() cluster.TaskRef { return cluster.TaskRef(t) }

// CommStructure selects how learned parameters are accumulated (§3.2).
type CommStructure int

const (
	// ParameterServer: workers send results to a central parameter-server
	// task, which is itself scheduled and carries the highest priority.
	ParameterServer CommStructure = iota
	// AllReduce: reducers exchange parameters over a ring; there is no
	// separate parameter-server task.
	AllReduce
)

// String names the communication structure.
func (c CommStructure) String() string {
	if c == AllReduce {
		return "allreduce"
	}
	return "ps"
}

// Topology selects the all-reduce communication topology (§3.2 points at
// ring all-reduce and 2D-Torus as the usual choices).
type Topology int

const (
	// Ring: each reducer exchanges with two neighbours; latency scales
	// with (n−1)/n per volume unit.
	Ring Topology = iota
	// Torus2D: reducers form a √n×√n torus and reduce along rows then
	// columns; latency scales with 2(√n−1)/√n, lower than ring for large n.
	Torus2D
)

// String names the topology.
func (t Topology) String() string {
	if t == Torus2D {
		return "2d-torus"
	}
	return "ring"
}

// State is a job's lifecycle state.
type State int

const (
	// Pending: submitted, no iteration completed yet.
	Pending State = iota
	// Running: at least one task placed at some point and not yet done.
	Running
	// Finished: ran its full course (I_max or early stop with target met).
	Finished
	// Stopped: terminated early by MLF-C / OptStop before reaching
	// I_max; its achieved accuracy stands.
	Stopped
	// Killed: abandoned by fault recovery after exhausting its retry
	// budget (MaxRetries server failures hit the job). Its achieved
	// accuracy stands, like Stopped, but it counts as a recovery
	// failure in the metrics.
	Killed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Finished:
		return "finished"
	case Stopped:
		return "stopped"
	case Killed:
		return "killed"
	default:
		return "unknown"
	}
}

// Task is one worker: it computes one model partition for one mini-batch
// replica (§3.2). A parameter-server task has Partition == -1.
type Task struct {
	// Static task structure (ID through IsPS) is never serialized:
	// restore re-streams the consumed trace prefix and re-materialises
	// each live job, rebuilding these fields bit-identically.
	ID      TaskID //mlfs:derived re-assigned in stream order by restore's trace replay
	Job     *Job
	Index   int // position in Job.Tasks
	Replica int // data-parallel replica (mini-batch) index
	// Partition is the model-partition index, or -1 for a PS task.
	Partition int //mlfs:derived re-materialised from the trace record
	// Params is S_k, the number of model parameters in this partition
	// (millions). The spatial size feature of Eq. 2 is Params/Job.TotalParams.
	Params float64 //mlfs:derived re-materialised from the trace record
	// Stage is the topological level of the task in the dependency DAG.
	Stage int //mlfs:derived recomputed by the DAG build on re-materialisation
	// children/parents hold indices into Job.Tasks.
	children []int
	parents  []int
	// ComputeSec is the task's compute time per iteration on a unit GPU.
	ComputeSec float64 //mlfs:derived re-materialised from the trace record
	// Demand is the task's per-resource consumption when placed.
	Demand cluster.Vec //mlfs:derived re-materialised from the trace record
	// GPUShare is the fraction of one GPU device the task occupies.
	GPUShare float64 //mlfs:derived re-materialised from the trace record
	// IsPS marks the parameter-server task.
	IsPS bool //mlfs:derived re-materialised from the trace record

	// QueuedAt is when the task last entered the waiting queue; used for
	// the waiting-time priority feature w_{k,J}.
	QueuedAt float64
}

// Children returns the indices (into Job.Tasks) of the tasks that directly
// depend on t.
func (t *Task) Children() []int { return t.children }

// Parents returns the indices of the tasks t directly depends on.
func (t *Task) Parents() []int { return t.parents }

// NormSize returns S_k/S_J, the normalised model-partition size of Eq. 2.
// PS tasks return 1 (they hold the full model).
func (t *Task) NormSize() float64 {
	if t.IsPS {
		return 1
	}
	if t.Job.TotalParams == 0 {
		return 0
	}
	return t.Params / t.Job.TotalParams
}

// Job is one training job.
type Job struct {
	// Static job metadata is never serialized; restore re-materialises
	// it from the trace record (see Task's field notes).
	ID       ID //mlfs:derived re-materialised from the trace record
	Name     string
	Family   learncurve.Family
	Comm     CommStructure
	Urgency  int // L_J in [0, m]; higher is more urgent (§3.3.1)
	Arrival  float64
	Deadline float64 //mlfs:derived re-materialised from the trace record
	// AccuracyTarget is a^r_J.
	AccuracyTarget float64
	Curve          learncurve.Curve
	MaxIterations  int

	DataParallel  int // D: mini-batch replicas
	ModelParallel int // P: model partitions
	TotalParams   float64
	TrainDataMB   float64

	// CommVolPS is MB sent from each final worker to the PS per iteration;
	// CommVolWW is MB between dependent workers per iteration (§4.1:
	// both drawn from [50,100] MB).
	CommVolPS float64
	CommVolWW float64

	StopOption     learncurve.StopOption
	AllowDowngrade bool
	// Topology is the all-reduce topology (ignored for ParameterServer).
	Topology Topology

	Tasks  []*Task
	stages [][]int // task indices per topological level

	// EstimatedRuntime is t_e, the predicted total runtime under ideal
	// placement (filled by the predictor package).
	EstimatedRuntime float64 //mlfs:derived recomputed by EstimateRuntime on re-materialisation

	// --- Dynamic training state (owned by the simulator) ---

	// SimIndex is the simulator-assigned dense index of the job within
	// its run (0..n-1 in arrival order). It lets the simulator keep
	// per-job state in flat slices instead of maps on the per-tick hot
	// path. Zero until a simulator adopts the job.
	SimIndex int

	// SimSlot is the simulator's recycled per-job cache slot: unlike
	// SimIndex it is bounded by the peak number of live jobs, not the
	// total submission count, because retired jobs return their slot to a
	// free list. -1 while the job holds no slot. Slot numbering is an
	// implementation detail of one run — never serialized, never read by
	// schedulers.
	SimSlot int //mlfs:derived reassigned by the restoring simulator's slot rebuild

	// PlacedTasks counts the job's currently placed tasks, maintained by
	// every placement/removal path (sched.Context, gang rollback, the
	// simulator's finish/fail/fault paths). It lets per-tick scans skip
	// jobs with nothing on the cluster without an O(tasks) lookup each.
	PlacedTasks int //mlfs:derived settled from the restored cluster's placements

	// DeadlineSnapped marks that AccuracyAtDeadline has been recorded
	// (the deadline fell inside an executed tick, or the job finished
	// first). Owned by the simulator.
	DeadlineSnapped bool

	State State
	// Progress counts completed iterations, fractional during a tick.
	Progress float64
	// FinishTime is the simulation time of completion/stop (valid when
	// State is Finished or Stopped).
	FinishTime float64
	// WaitingTime accumulates periods when none of the job's tasks were
	// running (the paper's job waiting time definition, Fig 4d).
	WaitingTime float64
	// AccuracyAtDeadline is the accuracy achieved by min(deadline, finish);
	// it is what Figs. 4e/4f score.
	AccuracyAtDeadline float64
	// Predictor accumulates the observed learning curve for OptStop.
	Predictor learncurve.Predictor
	// EverPlaced reports whether all tasks were simultaneously placed at
	// least once.
	EverPlaced bool

	// --- Fault-recovery state (owned by the simulator's fault loop;
	// all zero and untouched when fault injection is disabled) ---

	// CheckpointProgress is the iteration count of the last durable
	// checkpoint. The simulator checkpoints every K iterations
	// (FailureConfig.CheckpointEveryIters), so a failure rolls Progress
	// back here and replays at most K−1 completed iterations.
	CheckpointProgress float64
	// Retries counts how many server failures have hit this job; when it
	// exceeds the retry budget the job is Killed.
	Retries int
	// NextRetryAt is the simulation time before which the job's evicted
	// tasks stay parked (exponential backoff between restarts).
	NextRetryAt float64

	// --- Round bookkeeping (owned by sched.Context; see
	// internal/sched/incremental.go) ---

	// InPendingList marks the job as a live entry of the context's
	// sorted pending-jobs list (≥1 queued task).
	InPendingList bool //mlfs:derived rebuilt by RebuildRoundState from the restored queue
	// DirtyMark dedups the context's change journal: set while the job
	// sits in the accumulating buffer, cleared when the buffer is
	// delivered to the scheduler.
	DirtyMark bool //mlfs:derived journal state, rebuilt empty on restore
}

// Iteration returns the 1-based index of the iteration the job is
// currently executing: completed iterations + 1 (the I of Eq. 2). A job
// that has completed all work returns MaxIterations.
func (j *Job) Iteration() int {
	it := int(j.Progress) + 1
	if it > j.MaxIterations {
		it = j.MaxIterations
	}
	if it < 1 {
		it = 1
	}
	return it
}

// CompletedIterations returns the number of fully completed iterations.
func (j *Job) CompletedIterations() int {
	c := int(j.Progress)
	if c > j.MaxIterations {
		c = j.MaxIterations
	}
	return c
}

// Accuracy returns the true accuracy at the current progress.
func (j *Job) Accuracy() float64 { return j.Curve.Accuracy(j.CompletedIterations()) }

// Done reports whether the job has finished, been stopped, or been
// killed by fault recovery — i.e. it will never run again.
func (j *Job) Done() bool { return j.State == Finished || j.State == Stopped || j.State == Killed }

// JCT returns the job completion time (finish − arrival); it is only
// meaningful once Done.
func (j *Job) JCT() float64 { return j.FinishTime - j.Arrival }

// DeadlineMet reports whether the job completed by its deadline. A
// Killed job never counts: it delivered nothing, whenever it died.
func (j *Job) DeadlineMet() bool {
	return j.Done() && j.State != Killed && j.FinishTime <= j.Deadline
}

// AccuracyMet reports whether the accuracy requirement was satisfied by
// the deadline (§4.2: accuracy guarantee ratio).
func (j *Job) AccuracyMet() bool { return j.AccuracyAtDeadline >= j.AccuracyTarget }

// Stages returns the topological levels of the task DAG: stages[i] holds
// the indices of the tasks at level i. All parents of a task live in
// strictly earlier stages.
func (j *Job) Stages() [][]int { return j.stages }

// NumTasks returns the number of tasks (workers + PS).
func (j *Job) NumTasks() int { return len(j.Tasks) }

// RemainingIterations returns I_max − completed.
func (j *Job) RemainingIterations() int {
	r := j.MaxIterations - j.CompletedIterations()
	if r < 0 {
		return 0
	}
	return r
}

// CriticalPathSec returns the compute-only critical path of one iteration:
// the sum over stages of the maximum task compute time in the stage. It
// ignores communication, which depends on placement and is the
// simulator's concern.
func (j *Job) CriticalPathSec() float64 {
	var total float64
	for _, stage := range j.stages {
		var m float64
		for _, ti := range stage {
			if c := j.Tasks[ti].ComputeSec; c > m {
				m = c
			}
		}
		total += m
	}
	return total
}

// TailSec returns the compute critical path of the stages strictly after
// the given stage — the downstream slack used to derive per-task deadlines
// (§3.3.1: a task's deadline follows from the job deadline and the
// dependency graph).
func (j *Job) TailSec(stage int) float64 {
	var total float64
	for s := stage + 1; s < len(j.stages); s++ {
		var m float64
		for _, ti := range j.stages[s] {
			if c := j.Tasks[ti].ComputeSec; c > m {
				m = c
			}
		}
		total += m
	}
	return total
}

// TaskDeadline returns d_{k,J}: the latest time task k's per-iteration
// work should finish so the job can still meet its deadline, i.e. the job
// deadline minus the downstream critical path of the remaining iterations.
func (j *Job) TaskDeadline(k *Task) float64 {
	rem := float64(j.RemainingIterations())
	return j.Deadline - j.TailSec(k.Stage)*rem
}

// TaskRemaining returns r_{k,J}: the task's estimated remaining running
// time (§3.3.1: r = t_required − t_run). Under synchronous training a
// worker lives until its job's last iteration completes, so its
// wall-clock remaining time is the remaining iterations times the job's
// per-iteration critical path — using the task's own compute share would
// make heavily-partitioned jobs look deceptively short.
func (j *Job) TaskRemaining(k *Task) float64 {
	return float64(j.RemainingIterations()) * j.CriticalPathSec()
}

// Validate checks DAG structural invariants; it is used by tests and the
// trace loader.
func (j *Job) Validate() error {
	if len(j.Tasks) == 0 {
		return fmt.Errorf("job %d: no tasks", j.ID)
	}
	seen := 0
	for s, stage := range j.stages {
		for _, ti := range stage {
			if ti < 0 || ti >= len(j.Tasks) {
				return fmt.Errorf("job %d: stage %d has bad task index %d", j.ID, s, ti)
			}
			if j.Tasks[ti].Stage != s {
				return fmt.Errorf("job %d: task %d stage mismatch", j.ID, ti)
			}
			seen++
		}
	}
	if seen != len(j.Tasks) {
		return fmt.Errorf("job %d: stages cover %d of %d tasks", j.ID, seen, len(j.Tasks))
	}
	for i, t := range j.Tasks {
		if t.Index != i {
			return fmt.Errorf("job %d: task %d has Index %d", j.ID, i, t.Index)
		}
		for _, c := range t.children {
			if j.Tasks[c].Stage <= t.Stage {
				return fmt.Errorf("job %d: edge %d->%d does not advance stage", j.ID, i, c)
			}
			found := false
			for _, p := range j.Tasks[c].parents {
				if p == i {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("job %d: edge %d->%d missing back-edge", j.ID, i, c)
			}
		}
	}
	// Each data-parallel replica holds a full model copy, so the partition
	// parameters of any single replica must sum to the model size.
	var params float64
	for _, t := range j.Tasks {
		if !t.IsPS && t.Replica == 0 {
			params += t.Params
		}
	}
	if math.Abs(params-j.TotalParams) > 1e-6*(1+j.TotalParams) {
		return fmt.Errorf("job %d: replica-0 partition params %v != total %v", j.ID, params, j.TotalParams)
	}
	return nil
}
