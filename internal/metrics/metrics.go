// Package metrics turns finished simulation state into the quantities the
// paper's evaluation reports (Figs. 4–9): average JCT, makespan, waiting
// time, deadline/accuracy guarantee ratios, average accuracy by deadline,
// bandwidth cost and scheduler time overhead.
//
// Determinism: every function here is a pure summary of its inputs —
// sorted before any order-sensitive aggregation — so identical runs
// yield byte-identical Results. The package is not in the lint
// DeterministicPaths registry (there is nothing stochastic to police);
// the repo-wide epochguard, floatcmp and pkgdoc checks still apply.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"mlfs/internal/job"
)

// Counters are the event totals the simulator accumulates during a run.
type Counters struct {
	BandwidthMB         float64 // cross-server training traffic + migration state
	MigrationMB         float64 // migration component of BandwidthMB
	Placements          int     // tasks placed by scheduling rounds
	Migrations          int
	Evictions           int
	OverloadOccurrences int // server-ticks spent overloaded (Fig 8a)
	SchedRounds         int
	SchedSeconds        float64 // total wall-clock spent inside Schedule()
	SimulatedSec        float64
	Truncated           int // jobs cut off by the simulation horizon
	Rejected            int // jobs larger than the whole cluster

	// Incremental-round telemetry (zero under the full-rescan and dense
	// oracles). Like SchedSeconds these depend on the execution mode —
	// and SkippedRounds on warm skipper state a restore legitimately
	// drops — so cross-mode and crash-replay comparisons zero them.
	DirtyJobs     int // jobs delivered through the round change journal
	SkippedRounds int // rounds proven no-ops and skipped (sched.RoundSkipper)

	// Fault-injection totals (all zero when FailureConfig is disabled).
	ServerFailures   int     // servers taken down by the fault process
	ServerRepairs    int     // servers returned to service
	FailureEvictions int     // task placements lost to server failures
	WorkLostIters    float64 // iterations rolled back to the last checkpoint
	JobRestarts      int     // jobs re-queued after losing tasks to a failure
	JobsKilled       int     // jobs abandoned after exhausting MaxRetries
}

// Result is the full outcome of one simulation run.
type Result struct {
	Scheduler string
	Jobs      int

	AvgJCTSec   float64
	MakespanSec float64
	AvgWaitSec  float64
	AvgAccuracy float64 // by deadline (Fig 4e)

	DeadlineRatio       float64 // Fig 4c
	AccuracyRatio       float64 // Fig 4f
	UrgentDeadlineRatio float64 // Fig 6 (urgency > urgentThreshold)

	JCTs []float64 // per finished job, seconds (Fig 4a CDF)

	Counters Counters
}

// UrgentThreshold is the urgency level above which a job counts as urgent
// (§4.2.2: levels drawn from [1,10], urgent when > 8).
const UrgentThreshold = 8

// Tally is the per-job summary ComputeFromTallies folds over:
// everything a job contributes to a Result, reduced to a few scalars.
// The simulator records a Tally when it retires a job so the job object
// itself can be dropped; the jobs of a run never coexist in memory.
type Tally struct {
	// SimIndex orders the fold: float addition is not associative, so
	// tallies recorded in finish order are folded in SimIndex (arrival)
	// order to land on the same bits however the run retired them.
	SimIndex int

	JCT     float64
	Wait    float64
	Acc     float64 // accuracy at deadline
	Arrival float64
	Finish  float64

	DeadlineMet bool
	AccMet      bool
	Urgent      bool
	// State is the job's final job.State (Finished, Stopped or Killed);
	// a byte, so it rides in the struct's padding.
	State uint8
}

// TallyOf reduces one finished job to its Result contribution.
func TallyOf(j *job.Job) Tally {
	return Tally{
		SimIndex:    j.SimIndex,
		JCT:         j.JCT(),
		Wait:        j.WaitingTime,
		Acc:         j.AccuracyAtDeadline,
		Arrival:     j.Arrival,
		Finish:      j.FinishTime,
		DeadlineMet: j.DeadlineMet(),
		AccMet:      j.AccuracyMet(),
		Urgent:      j.Urgency > UrgentThreshold,
		State:       uint8(j.State),
	}
}

// ComputeFromTallies summarises per-job tallies plus counters into a
// Result. It sorts by SimIndex first, so a tally set accumulated in any
// order (the simulator retires jobs in finish order) folds identically;
// tallies is sorted in place. Jobs that never finished (truncated)
// count against every ratio and contribute their elapsed time as JCT,
// so truncation can only hurt a scheduler, never flatter it.
func ComputeFromTallies(scheduler string, tallies []Tally, c Counters) *Result {
	r := &Result{Scheduler: scheduler, Jobs: len(tallies), Counters: c}
	if len(tallies) == 0 {
		return r
	}
	sort.Slice(tallies, func(i, k int) bool { return tallies[i].SimIndex < tallies[k].SimIndex })
	var (
		sumJCT, sumWait, sumAcc  float64
		deadlineOK, accOK        int
		urgent, urgentOK         int
		firstArrival, lastFinish = math.Inf(1), 0.0
	)
	for i := range tallies {
		t := &tallies[i]
		r.JCTs = append(r.JCTs, t.JCT)
		sumJCT += t.JCT
		sumWait += t.Wait
		sumAcc += t.Acc
		if t.DeadlineMet {
			deadlineOK++
		}
		if t.AccMet {
			accOK++
		}
		if t.Urgent {
			urgent++
			if t.DeadlineMet {
				urgentOK++
			}
		}
		if t.Arrival < firstArrival {
			firstArrival = t.Arrival
		}
		if t.Finish > lastFinish {
			lastFinish = t.Finish
		}
	}
	n := float64(len(tallies))
	r.AvgJCTSec = sumJCT / n
	r.AvgWaitSec = sumWait / n
	r.AvgAccuracy = sumAcc / n
	r.DeadlineRatio = float64(deadlineOK) / n
	r.AccuracyRatio = float64(accOK) / n
	if urgent > 0 {
		r.UrgentDeadlineRatio = float64(urgentOK) / float64(urgent)
	}
	r.MakespanSec = lastFinish - firstArrival
	sort.Float64s(r.JCTs)
	return r
}

// ZeroVolatile clears the counters that legitimately differ between a
// crash-resumed (or mode-switched) run and its uninterrupted golden:
// SchedSeconds is wall clock, and the incremental-round telemetry
// depends on warm journal/skipper state a restore rebuilds
// conservatively (every pending job is re-journalled, skip proofs are
// discarded). Comparison tests call it on both sides before DeepEqual;
// same-mode comparisons (insertion orders) deliberately do not, so
// journal determinism stays asserted.
func (c *Counters) ZeroVolatile() {
	c.SchedSeconds = 0
	c.DirtyJobs = 0
	c.SkippedRounds = 0
}

// SchedOverheadMS returns the mean scheduler decision time per round in
// milliseconds (Fig 4h).
func (r *Result) SchedOverheadMS() float64 {
	if r.Counters.SchedRounds == 0 {
		return 0
	}
	return r.Counters.SchedSeconds / float64(r.Counters.SchedRounds) * 1000
}

// CDF evaluates the empirical CDF of sorted values at each point:
// fraction of values <= point.
func CDF(sorted []float64, points []float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		idx := sort.SearchFloat64s(sorted, math.Nextafter(p, math.Inf(1)))
		out[i] = float64(idx) / float64(len(sorted))
	}
	if len(sorted) == 0 {
		for i := range out {
			out[i] = 0
		}
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of sorted values using
// nearest-rank; it is what the paper's error bars report (1st, 50th,
// 99th).
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// FractionUnder returns the fraction of finished jobs with JCT below sec
// (the paper quotes "% of jobs with JCT less than 100 minutes").
func (r *Result) FractionUnder(sec float64) float64 {
	if len(r.JCTs) == 0 {
		return 0
	}
	return CDF(r.JCTs, []float64{sec})[0]
}

// Improvement returns (y-z)/z, the paper's improvement formula (§4.1),
// where y is this result's metric and z the baseline's. Positive means y
// is larger.
func Improvement(y, z float64) float64 {
	if z == 0 {
		return 0
	}
	return (y - z) / z
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: jobs=%d avgJCT=%.1fmin makespan=%.1fh wait=%.1fmin acc=%.3f ddl=%.2f accOK=%.2f bw=%.1fGB sched=%.2fms",
		r.Scheduler, r.Jobs, r.AvgJCTSec/60, r.MakespanSec/3600, r.AvgWaitSec/60,
		r.AvgAccuracy, r.DeadlineRatio, r.AccuracyRatio,
		r.Counters.BandwidthMB/1024, r.SchedOverheadMS())
}
