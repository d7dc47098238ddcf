package metrics

import (
	"math"
	"strings"
	"testing"

	"mlfs/internal/job"
)

func doneJob(id int64, arrival, finish, deadline, wait, acc, target float64, urgency int) *job.Job {
	j := &job.Job{ID: job.ID(id), Arrival: arrival, Deadline: deadline,
		AccuracyTarget: target, Urgency: urgency}
	j.State = job.Finished
	j.FinishTime = finish
	j.WaitingTime = wait
	j.AccuracyAtDeadline = acc
	return j
}

// compute folds finished jobs the way the simulator does: one tally per
// job, SimIndex in slice order.
func compute(scheduler string, jobs []*job.Job, c Counters) *Result {
	tallies := make([]Tally, len(jobs))
	for i, j := range jobs {
		j.SimIndex = i
		tallies[i] = TallyOf(j)
	}
	return ComputeFromTallies(scheduler, tallies, c)
}

func TestComputeBasics(t *testing.T) {
	jobs := []*job.Job{
		doneJob(1, 0, 100, 200, 10, 0.9, 0.8, 9),   // ok, ok, urgent ok
		doneJob(2, 0, 300, 200, 30, 0.7, 0.8, 9),   // miss, miss, urgent miss
		doneJob(3, 50, 150, 400, 20, 0.85, 0.8, 2), // ok, ok, not urgent
	}
	r := compute("test", jobs, Counters{SchedRounds: 4, SchedSeconds: 0.008})
	if r.Jobs != 3 {
		t.Fatalf("Jobs = %d", r.Jobs)
	}
	if want := (100.0 + 300 + 100) / 3; math.Abs(r.AvgJCTSec-want) > 1e-9 {
		t.Fatalf("AvgJCT = %v, want %v", r.AvgJCTSec, want)
	}
	if want := 20.0; r.AvgWaitSec != want {
		t.Fatalf("AvgWait = %v", r.AvgWaitSec)
	}
	if math.Abs(r.DeadlineRatio-2.0/3) > 1e-9 {
		t.Fatalf("DeadlineRatio = %v", r.DeadlineRatio)
	}
	if math.Abs(r.AccuracyRatio-2.0/3) > 1e-9 {
		t.Fatalf("AccuracyRatio = %v", r.AccuracyRatio)
	}
	if math.Abs(r.UrgentDeadlineRatio-0.5) > 1e-9 {
		t.Fatalf("UrgentDeadlineRatio = %v", r.UrgentDeadlineRatio)
	}
	if r.MakespanSec != 300 {
		t.Fatalf("Makespan = %v", r.MakespanSec)
	}
	if ms := r.SchedOverheadMS(); math.Abs(ms-2) > 1e-9 {
		t.Fatalf("SchedOverheadMS = %v", ms)
	}
	if !strings.Contains(r.String(), "test") {
		t.Fatal("String must include scheduler name")
	}
}

func TestComputeEmpty(t *testing.T) {
	r := compute("x", nil, Counters{})
	if r.Jobs != 0 || r.AvgJCTSec != 0 || r.SchedOverheadMS() != 0 {
		t.Fatal("empty result must be zeroed")
	}
}

func TestCDF(t *testing.T) {
	sorted := []float64{1, 2, 2, 3, 10}
	got := CDF(sorted, []float64{0, 1, 2, 5, 10, 20})
	want := []float64{0, 0.2, 0.6, 0.8, 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := CDF(nil, []float64{1}); out[0] != 0 {
		t.Fatal("empty CDF must be 0")
	}
}

func TestFractionUnder(t *testing.T) {
	jobs := []*job.Job{
		doneJob(1, 0, 50*60, 1e9, 0, 0.9, 0.5, 1),
		doneJob(2, 0, 150*60, 1e9, 0, 0.9, 0.5, 1),
	}
	r := compute("x", jobs, Counters{})
	if f := r.FractionUnder(100 * 60); f != 0.5 {
		t.Fatalf("FractionUnder = %v", f)
	}
	empty := compute("x", nil, Counters{})
	if empty.FractionUnder(100) != 0 {
		t.Fatal("empty FractionUnder must be 0")
	}
}

func TestImprovement(t *testing.T) {
	if Improvement(150, 100) != 0.5 {
		t.Fatal("(150-100)/100 = 0.5")
	}
	if Improvement(1, 0) != 0 {
		t.Fatal("zero baseline guards division")
	}
}
