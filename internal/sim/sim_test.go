package sim

import (
	"math"
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
	"mlfs/internal/trace"
)

// fifoGang is a minimal test scheduler: place pending jobs gang-at-a-time
// in submission order with first-fit.
type fifoGang struct{}

func (fifoGang) Name() string { return "fifo-test" }
func (fifoGang) Schedule(ctx *sched.Context) {
	for _, j := range ctx.PendingJobs() {
		ctx.PlaceGang(ctx.QueuedTasksOf(j), sched.FirstFit)
	}
}

func testClusterCfg() cluster.Config {
	return cluster.Config{Servers: 4, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200}
}

func smallSource(jobs int, seed int64) trace.Source {
	return trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: jobs, Seed: seed, DurationSec: 3600}))
}

// oneJobSource streams the single submission rec.
func oneJobSource(rec trace.Record) trace.Source {
	return trace.NewSliceSource(&trace.Trace{DurationSec: 100, Records: []trace.Record{rec}})
}

// admitFirst admits the arrivals due by the current time and returns
// the first admitted job, for tests that probe or follow one job.
func admitFirst(t *testing.T, s *Simulator) *job.Job {
	t.Helper()
	if err := s.admitArrivals(); err != nil {
		t.Fatal(err)
	}
	if len(s.active) == 0 {
		t.Fatal("setup: no job admitted")
	}
	return s.active[0]
}

// collectRetired registers a retire hook on s and returns the slice it
// fills with every job as it retires.
func collectRetired(s *Simulator) *[]*job.Job {
	var out []*job.Job
	s.SetRetireHook(func(j *job.Job) { out = append(out, j) })
	return &out
}

func run(t *testing.T, cfg Config) *metrics.Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Scheduler: fifoGang{}}); err == nil {
		t.Fatal("missing trace must fail")
	}
	if _, err := New(Config{Source: smallSource(1, 1)}); err == nil {
		t.Fatal("missing scheduler must fail")
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	res := run(t, Config{
		Cluster: testClusterCfg(), Source: smallSource(20, 42), Scheduler: fifoGang{},
	})
	if res.Jobs != 20 {
		t.Fatalf("Jobs = %d", res.Jobs)
	}
	if len(res.JCTs) != 20 {
		t.Fatalf("JCTs = %d", len(res.JCTs))
	}
	if res.Counters.Truncated != 0 {
		t.Fatalf("truncated %d jobs on a tiny workload", res.Counters.Truncated)
	}
	if res.AvgJCTSec <= 0 || res.MakespanSec <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Counters.SchedRounds == 0 {
		t.Fatal("scheduler never ran")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := func() Config {
		return Config{Cluster: testClusterCfg(), Source: smallSource(15, 7), Scheduler: fifoGang{}}
	}
	a := run(t, cfg())
	b := run(t, cfg())
	if a.AvgJCTSec != b.AvgJCTSec || a.Counters.BandwidthMB != b.Counters.BandwidthMB ||
		a.DeadlineRatio != b.DeadlineRatio || a.AvgAccuracy != b.AvgAccuracy {
		t.Fatalf("non-deterministic run:\n%v\n%v", a, b)
	}
}

func TestJobOutcomesConsistent(t *testing.T) {
	cfg := Config{Cluster: testClusterCfg(), Source: smallSource(25, 3), Scheduler: fifoGang{}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retired := collectRetired(s)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*retired) != 25 {
		t.Fatalf("%d jobs retired, want 25", len(*retired))
	}
	for _, j := range *retired {
		if !j.Done() {
			t.Fatalf("job %d not done (%v)", j.ID, j.State)
		}
		if j.FinishTime < j.Arrival {
			t.Fatalf("job %d finished before arrival", j.ID)
		}
		if j.AccuracyAtDeadline < 0 || j.AccuracyAtDeadline > 1 {
			t.Fatalf("job %d accuracy %v", j.ID, j.AccuracyAtDeadline)
		}
		if j.State == job.Finished && math.Abs(j.Progress-float64(j.MaxIterations)) > 1e-6 {
			t.Fatalf("job %d finished with progress %v / %d", j.ID, j.Progress, j.MaxIterations)
		}
		if j.WaitingTime < 0 {
			t.Fatalf("job %d negative waiting time", j.ID)
		}
	}
	if s.Cluster().NumTasks() != 0 {
		t.Fatal("cluster must be empty after the run")
	}
}

func TestBandwidthAccumulates(t *testing.T) {
	res := run(t, Config{Cluster: testClusterCfg(), Source: smallSource(20, 11), Scheduler: fifoGang{}})
	// With multi-GPU jobs spread over 4 servers some traffic must cross.
	if res.Counters.BandwidthMB <= 0 {
		t.Fatal("no cross-server bandwidth recorded")
	}
}

func TestTruncationAtHorizon(t *testing.T) {
	res := run(t, Config{
		Cluster:   cluster.Config{Servers: 1, GPUsPerServer: 1, GPUCapacity: 1, CPUCapacity: 4, MemoryCapacity: 32, BWCapacity: 100},
		Source:    smallSource(30, 5),
		Scheduler: fifoGang{},
		MaxSimSec: 2 * 3600, // far too short for 30 jobs on 1 GPU
	})
	if res.Counters.Truncated == 0 {
		t.Fatal("expected truncated jobs at a tiny horizon")
	}
	if len(res.JCTs) != 30 {
		t.Fatal("all jobs must still be accounted")
	}
}

// A single small job on an idle cluster must finish in roughly
// MaxIterations × critical-path seconds (plus tick rounding).
func TestSingleJobRuntimeMatchesModel(t *testing.T) {
	src := oneJobSource(trace.Record{
		JobID: 1, ArrivalSec: 0, GPUs: 2, Family: 2, /* MLP */
		Comm: job.AllReduce, Urgency: 1, TargetFrac: 0.8, TrainDataMB: 500,
		CommVolPS: 60, CommVolWW: 60, DeadlineSlackSec: 24 * 3600,
		StopOption: 0, Seed: 99,
	})
	s, err := New(Config{Cluster: testClusterCfg(), Source: src, Scheduler: fifoGang{},
		DemandWobble: -1}) // negative -> clamped to 0: no wobble
	if err != nil {
		t.Fatal(err)
	}
	jb := admitFirst(t, s)
	ideal := float64(jb.MaxIterations) * jb.IdealIterationSec()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := res.AvgJCTSec
	// Placed on one server (first-fit packs), so no comm inflation; allow
	// one tick of slack either way.
	if got < ideal-60 || got > ideal*1.5+120 {
		t.Fatalf("JCT %v, ideal %v", got, ideal)
	}
}

// Co-location: a 2-task job forced across two servers must pay
// communication time and bandwidth; the same job on one server must not.
func TestCrossServerCommCosts(t *testing.T) {
	mk := func() (*Simulator, *job.Job) {
		src := oneJobSource(trace.Record{
			JobID: 1, ArrivalSec: 0, GPUs: 2, Family: 0, /* alexnet: sequential */
			Comm: job.AllReduce, Urgency: 1, TargetFrac: 0.8, TrainDataMB: 500,
			CommVolPS: 80, CommVolWW: 80, DeadlineSlackSec: 24 * 3600, Seed: 5,
		})
		s, err := New(Config{Cluster: testClusterCfg(), Source: src, Scheduler: fifoGang{}, DemandWobble: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s, admitFirst(t, s)
	}

	s1, j1 := mk()
	if err := s1.Cluster().Place(j1.Tasks[0].ID.Ref(), 0, 0, j1.Tasks[0].Demand, j1.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	if err := s1.Cluster().Place(j1.Tasks[1].ID.Ref(), 0, 1, j1.Tasks[1].Demand, j1.Tasks[1].GPUShare); err != nil {
		t.Fatal(err)
	}
	secLocal, mbLocal := s1.iterationCost(j1)

	s2, j2 := mk()
	if err := s2.Cluster().Place(j2.Tasks[0].ID.Ref(), 0, 0, j2.Tasks[0].Demand, j2.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	if err := s2.Cluster().Place(j2.Tasks[1].ID.Ref(), 1, 0, j2.Tasks[1].Demand, j2.Tasks[1].GPUShare); err != nil {
		t.Fatal(err)
	}
	secRemote, mbRemote := s2.iterationCost(j2)

	if mbLocal != 0 {
		t.Fatalf("co-located job must not use cross-server bandwidth, got %v MB", mbLocal)
	}
	if mbRemote <= 0 {
		t.Fatal("split job must use cross-server bandwidth")
	}
	if secRemote <= secLocal {
		t.Fatalf("split placement must be slower: %v vs %v", secRemote, secLocal)
	}
}

func TestIterationCostUnplacedIsInf(t *testing.T) {
	s, err := New(Config{Cluster: testClusterCfg(), Source: smallSource(1, 9), Scheduler: fifoGang{}})
	if err != nil {
		t.Fatal(err)
	}
	s.now = 3600 // past the single arrival
	sec, _ := s.iterationCost(admitFirst(t, s))
	if !math.IsInf(sec, 1) {
		t.Fatal("unplaced job iteration cost must be +Inf")
	}
}

func TestWaitingTimeAccrues(t *testing.T) {
	// 1-GPU cluster, several jobs: later jobs must wait.
	res := run(t, Config{
		Cluster:   cluster.Config{Servers: 1, GPUsPerServer: 2, GPUCapacity: 1, CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200},
		Source:    smallSource(10, 13),
		Scheduler: fifoGang{},
	})
	if res.AvgWaitSec <= 0 {
		t.Fatal("expected nonzero waiting time under contention")
	}
}

func TestOverloadOccurrencesCounted(t *testing.T) {
	// High wobble forces transient overload on a packed cluster.
	res := run(t, Config{
		Cluster:      cluster.Config{Servers: 2, GPUsPerServer: 2, GPUCapacity: 1, CPUCapacity: 8, MemoryCapacity: 64, BWCapacity: 300},
		Source:       smallSource(12, 17),
		Scheduler:    fifoGang{},
		DemandWobble: 0.4,
	})
	if res.Counters.OverloadOccurrences == 0 {
		t.Fatal("expected overload occurrences with 0.4 wobble on a small cluster")
	}
}

// A job whose deadline passes mid-training must have its
// accuracy-at-deadline frozen below its final accuracy.
func TestAccuracySnappedAtDeadline(t *testing.T) {
	src := oneJobSource(trace.Record{
		JobID: 1, ArrivalSec: 0, GPUs: 1, Family: 2, /* MLP */
		Comm: job.AllReduce, Urgency: 1, TargetFrac: 0.9, TrainDataMB: 900,
		CommVolPS: 60, CommVolWW: 60,
		DeadlineSlackSec: 1800, // 30 min — far less than the training time
		Seed:             77,
	})
	s, err := New(Config{Cluster: testClusterCfg(), Source: src, Scheduler: fifoGang{}, DemandWobble: -1})
	if err != nil {
		t.Fatal(err)
	}
	j := admitFirst(t, s)
	if j.EstimatedRuntime < 2*1800 {
		t.Skipf("sampled job too short for this seed: %v s", j.EstimatedRuntime)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if j.DeadlineMet() {
		t.Fatal("setup: job must miss its deadline")
	}
	final := j.Curve.Accuracy(j.CompletedIterations())
	if j.AccuracyAtDeadline >= final {
		t.Fatalf("accuracy at deadline (%v) must be below final (%v)", j.AccuracyAtDeadline, final)
	}
	if j.AccuracyAtDeadline <= 0 {
		t.Fatal("job trained before the deadline; snapped accuracy must be positive")
	}
}

// Parameter-server jobs must pay PS communication volume when the PS
// lands on a different server from the workers.
func TestPSCommCost(t *testing.T) {
	src := oneJobSource(trace.Record{
		JobID: 1, ArrivalSec: 0, GPUs: 1, Family: 2,
		Comm: job.ParameterServer, Urgency: 1, TargetFrac: 0.8, TrainDataMB: 500,
		CommVolPS: 90, CommVolWW: 50, DeadlineSlackSec: 24 * 3600, Seed: 3,
	})
	s, err := New(Config{Cluster: testClusterCfg(), Source: src, Scheduler: fifoGang{}, DemandWobble: -1})
	if err != nil {
		t.Fatal(err)
	}
	j := admitFirst(t, s)
	var worker, ps *job.Task
	for _, task := range j.Tasks {
		if task.IsPS {
			ps = task
		} else {
			worker = task
		}
	}
	if ps == nil || worker == nil {
		t.Fatal("expected one worker + one PS")
	}
	if err := s.Cluster().Place(worker.ID.Ref(), 0, 0, worker.Demand, worker.GPUShare); err != nil {
		t.Fatal(err)
	}
	if err := s.Cluster().Place(ps.ID.Ref(), 1, 0, ps.Demand, ps.GPUShare); err != nil {
		t.Fatal(err)
	}
	_, crossMB := s.iterationCost(j)
	if crossMB != 90 {
		t.Fatalf("cross-server volume = %v, want CommVolPS=90", crossMB)
	}
}

// 2D-torus all-reduce must be faster than ring for jobs spanning many
// servers, while moving the same wire volume.
func TestAllReduceTopologyCost(t *testing.T) {
	mk := func(topo job.Topology) (float64, float64) {
		src := oneJobSource(trace.Record{
			JobID: 1, ArrivalSec: 0, GPUs: 4, Family: 4, /* SVM: data parallel */
			Comm: job.AllReduce, Urgency: 1, TargetFrac: 0.8, TrainDataMB: 500,
			CommVolPS: 80, CommVolWW: 80, DeadlineSlackSec: 24 * 3600, Seed: 41,
		})
		s, err := New(Config{Cluster: testClusterCfg(), Source: src, Scheduler: fifoGang{}, DemandWobble: -1})
		if err != nil {
			t.Fatal(err)
		}
		j := admitFirst(t, s)
		j.Topology = topo
		// Spread the four tasks over four servers.
		for i, task := range j.Tasks {
			if err := s.Cluster().Place(task.ID.Ref(), i, 0, task.Demand, task.GPUShare); err != nil {
				t.Fatal(err)
			}
		}
		sec, mb := s.iterationCost(j)
		return sec, mb
	}
	ringSec, ringMB := mk(job.Ring)
	torusSec, torusMB := mk(job.Torus2D)
	if ringMB != torusMB {
		t.Fatalf("wire volume must be topology-independent: %v vs %v", ringMB, torusMB)
	}
	if torusSec >= ringSec {
		t.Fatalf("2D torus must beat ring over 4 servers: %v vs %v", torusSec, ringSec)
	}
}
