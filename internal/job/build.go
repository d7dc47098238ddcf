package job

import (
	"fmt"
	"math"

	"mlfs/internal/cluster"
	"mlfs/internal/learncurve"
)

// Spec declares everything needed to construct a job and its task DAG.
type Spec struct {
	ID             ID
	Name           string
	Family         learncurve.Family
	Comm           CommStructure
	Urgency        int
	Arrival        float64
	Deadline       float64
	AccuracyTarget float64
	Curve          learncurve.Curve
	MaxIterations  int

	// DataParallel (D) and ModelParallel (P) give D×P worker tasks, plus
	// one PS task when Comm is ParameterServer.
	DataParallel  int
	ModelParallel int

	// TotalParams is the model size in millions of parameters; partitions
	// split it according to PartitionWeights (even split when nil).
	TotalParams      float64
	PartitionWeights []float64

	TrainDataMB float64

	// IterSec is the compute time of one full forward+backward pass of the
	// whole model for one mini-batch on unit GPUs; partitions split it in
	// proportion to their parameter share.
	IterSec float64

	CommVolPS float64
	CommVolWW float64

	StopOption     learncurve.StopOption
	AllowDowngrade bool

	// Topology is the all-reduce topology (Ring by default).
	Topology Topology

	// Per-task demands. GPUSharePerTask defaults to 1 (task per GPU).
	GPUSharePerTask float64
	CPUPerTask      float64
	MemPerTask      float64
	BWPerTask       float64
}

func (s *Spec) withDefaults() Spec {
	out := *s
	if out.DataParallel <= 0 {
		out.DataParallel = 1
	}
	if out.ModelParallel <= 0 {
		out.ModelParallel = 1
	}
	if out.MaxIterations <= 0 {
		out.MaxIterations = 1
	}
	if out.TotalParams <= 0 {
		out.TotalParams = 1
	}
	if out.IterSec <= 0 {
		out.IterSec = 1
	}
	if out.GPUSharePerTask <= 0 {
		// A worker occupies one GPU but utilises ~75% of its compute on
		// average; two workers on one device would exceed the h_r=0.9
		// overload threshold, preserving task-per-GPU placement while
		// letting utilisation-based overload detection work.
		out.GPUSharePerTask = 0.75
	}
	if out.CPUPerTask <= 0 {
		out.CPUPerTask = 2
	}
	if out.MemPerTask <= 0 {
		out.MemPerTask = 8
	}
	if out.BWPerTask <= 0 {
		out.BWPerTask = 10
	}
	return out
}

// layeredShape returns (width, levels) for the layered DAG of P
// partitions: width is the largest power of two not exceeding sqrt(P)
// that divides P, so ResNet/LSTM partitions form levels of parallel
// parts (§4.1: "partitioned each layer into several parts").
func layeredShape(p int) (width, levels int) {
	width = 1
	for w := 2; w*w <= p; w *= 2 {
		if p%w == 0 {
			width = w
		}
	}
	return width, p / width
}

// Build constructs the job and its task DAG. Task IDs are assigned from
// nextID, which is advanced past the last assigned id; callers pass a
// pointer to their global counter so task ids are cluster-unique.
func Build(spec Spec, nextID *TaskID) (*Job, error) {
	sp := spec.withDefaults()
	if err := sp.Curve.Validate(); err != nil {
		return nil, fmt.Errorf("job %d: %w", sp.ID, err)
	}
	if !sp.Family.ModelParallel() && sp.ModelParallel > 1 {
		return nil, fmt.Errorf("job %d: family %v does not support model parallelism", sp.ID, sp.Family)
	}
	weights := sp.PartitionWeights
	if weights == nil {
		weights = make([]float64, sp.ModelParallel)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != sp.ModelParallel {
		return nil, fmt.Errorf("job %d: %d partition weights for %d partitions", sp.ID, len(weights), sp.ModelParallel)
	}
	var wsum float64
	for _, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("job %d: non-positive partition weight", sp.ID)
		}
		wsum += w
	}

	j := &Job{
		ID:             sp.ID,
		Name:           sp.Name,
		Family:         sp.Family,
		Comm:           sp.Comm,
		Urgency:        sp.Urgency,
		Arrival:        sp.Arrival,
		Deadline:       sp.Deadline,
		AccuracyTarget: sp.AccuracyTarget,
		Curve:          sp.Curve,
		MaxIterations:  sp.MaxIterations,
		DataParallel:   sp.DataParallel,
		ModelParallel:  sp.ModelParallel,
		TotalParams:    sp.TotalParams,
		TrainDataMB:    sp.TrainDataMB,
		CommVolPS:      sp.CommVolPS,
		CommVolWW:      sp.CommVolWW,
		StopOption:     sp.StopOption,
		AllowDowngrade: sp.AllowDowngrade,
		Topology:       sp.Topology,
	}

	demand := cluster.Vec{
		cluster.ResGPU:       sp.GPUSharePerTask,
		cluster.ResCPU:       sp.CPUPerTask,
		cluster.ResMemory:    sp.MemPerTask,
		cluster.ResBandwidth: sp.BWPerTask,
	}

	// Partition DAG shape shared by every replica.
	var width, levels int
	if sp.Family.SequentialDAG() {
		width, levels = 1, sp.ModelParallel
	} else {
		width, levels = layeredShape(sp.ModelParallel)
	}

	// level/slot of partition p.
	level := func(p int) int { return p / width }
	newTask := func(replica, partition int) *Task {
		t := &Task{
			ID:        *nextID,
			Job:       j,
			Index:     len(j.Tasks),
			Replica:   replica,
			Partition: partition,
			Demand:    demand,
			GPUShare:  sp.GPUSharePerTask,
		}
		*nextID++
		j.Tasks = append(j.Tasks, t)
		return t
	}

	// replicaTask[r][p] = index of (replica r, partition p).
	replicaTask := make([][]int, sp.DataParallel)
	for r := 0; r < sp.DataParallel; r++ {
		replicaTask[r] = make([]int, sp.ModelParallel)
		for p := 0; p < sp.ModelParallel; p++ {
			t := newTask(r, p)
			t.Params = sp.TotalParams * weights[p] / wsum
			t.ComputeSec = sp.IterSec * weights[p] / wsum
			t.Stage = level(p)
			replicaTask[r][p] = t.Index
		}
	}

	addEdge := func(from, to int) {
		j.Tasks[from].children = append(j.Tasks[from].children, to)
		j.Tasks[to].parents = append(j.Tasks[to].parents, from)
	}

	// Dependency edges within each replica: every partition at level l+1
	// depends on every partition at level l (sequential DAGs have width 1,
	// so this degenerates to a chain).
	for r := 0; r < sp.DataParallel; r++ {
		for p := 0; p < sp.ModelParallel; p++ {
			lp := level(p)
			for q := 0; q < sp.ModelParallel; q++ {
				if level(q) == lp+1 {
					addEdge(replicaTask[r][p], replicaTask[r][q])
				}
			}
		}
	}

	numStages := levels
	if sp.Comm == ParameterServer {
		ps := newTask(-1, -1)
		ps.IsPS = true
		ps.Partition = -1
		ps.Stage = levels
		ps.ComputeSec = sp.IterSec * 0.05 // parameter accumulation is cheap
		// The PS holds the model in memory but needs no GPU.
		ps.Demand = cluster.Vec{
			cluster.ResCPU:       sp.CPUPerTask,
			cluster.ResMemory:    sp.MemPerTask,
			cluster.ResBandwidth: sp.BWPerTask * float64(sp.DataParallel),
		}
		ps.GPUShare = 0
		// Final workers of every replica feed the PS (§3.2).
		for r := 0; r < sp.DataParallel; r++ {
			for p := 0; p < sp.ModelParallel; p++ {
				if level(p) == levels-1 {
					addEdge(replicaTask[r][p], ps.Index)
				}
			}
		}
		numStages++
	}

	// Topological stages.
	j.stages = make([][]int, numStages)
	for i, t := range j.Tasks {
		j.stages[t.Stage] = append(j.stages[t.Stage], i)
	}

	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// IdealIterationSec returns the per-iteration latency under ideal
// placement (no cross-server communication, no overload): the compute
// critical path. Used for runtime estimation.
func (j *Job) IdealIterationSec() float64 { return j.CriticalPathSec() }

// EstimateRuntime fills EstimatedRuntime with I_max × ideal iteration
// latency, the t_e used to derive deadlines in §4.1.
func (j *Job) EstimateRuntime() float64 {
	j.EstimatedRuntime = float64(j.MaxIterations) * j.IdealIterationSec()
	return j.EstimatedRuntime
}

// DescendantCount returns, for each task index, the number of (transitive)
// descendants in the DAG — useful to tests and to Graphene-style
// troublesome-task scoring.
func (j *Job) DescendantCount() []int {
	n := len(j.Tasks)
	counts := make([]int, n)
	// Process stages in reverse topological order; descendants(v) =
	// union of children and their descendants. With our level-dense DAGs a
	// set union is needed to avoid double counting.
	desc := make([]map[int]struct{}, n)
	for s := len(j.stages) - 1; s >= 0; s-- {
		for _, ti := range j.stages[s] {
			set := make(map[int]struct{})
			for _, c := range j.Tasks[ti].children {
				set[c] = struct{}{}
				for d := range desc[c] {
					set[d] = struct{}{}
				}
			}
			desc[ti] = set
			counts[ti] = len(set)
		}
	}
	return counts
}

// GPUsRequested returns the number of GPU-consuming tasks, the paper's
// "number of GPUs requested".
func (j *Job) GPUsRequested() int {
	n := 0
	for _, t := range j.Tasks {
		if t.GPUShare > 0 {
			n++
		}
	}
	return n
}

// TotalDemand returns the summed demand vector over all tasks.
func (j *Job) TotalDemand() cluster.Vec {
	var d cluster.Vec
	for _, t := range j.Tasks {
		d = d.Add(t.Demand)
	}
	return d
}

// ProgressFraction returns completed/I_max in [0,1].
func (j *Job) ProgressFraction() float64 {
	return math.Min(1, j.Progress/float64(j.MaxIterations))
}
