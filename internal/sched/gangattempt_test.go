package sched

import (
	"testing"

	"mlfs/internal/job"
)

// TestFailedGangReattemptedOnUnchangedCluster pins that PlaceGang
// remembers nothing about failed gangs: re-attempting the same gang on
// an unchanged cluster consults the chooser again, exactly as often as
// the first time. Choosers may have side effects (the learned ones
// record a decision and draw from their random stream), so skipping a
// repeat attempt would change the run. Each failure must also rewind
// the epochs it bumped, which is what keeps the epoch-keyed memos
// (candidates, no-fit frontier) warm across failed attempts.
func TestFailedGangReattemptedOnUnchangedCluster(t *testing.T) {
	var next job.TaskID
	// 3 servers x 2 GPUs; a 32-task gang places a few tasks, then fails
	// and rolls back — the partial-attempt path.
	big := testJob(t, 1, 32, &next)
	big.SimSlot = 0
	ctx := newCtx(t, big)

	calls := 0
	counting := func(c *Context, tk *job.Task, cand []int) (int, int, bool) {
		calls++
		return FirstFit(c, tk, cand)
	}
	ep := ctx.Cluster.Epoch()
	tasks := ctx.QueuedTasksOf(big)
	first := 0
	for attempt := 1; attempt <= 2; attempt++ {
		calls = 0
		if ctx.PlaceGang(tasks, counting) {
			t.Fatalf("attempt %d: 32 tasks cannot fit on 6 GPUs", attempt)
		}
		if ctx.Cluster.Epoch() != ep {
			t.Fatalf("attempt %d: epoch %d after the failure, want it rewound to %d", attempt, ctx.Cluster.Epoch(), ep)
		}
		if ctx.Placements != 0 || ctx.NumWaiting() != len(tasks) {
			t.Fatalf("attempt %d: %d placements, %d of %d tasks queued after the rollback",
				attempt, ctx.Placements, ctx.NumWaiting(), len(tasks))
		}
		if attempt == 1 {
			first = calls
			if first < 2 {
				t.Fatalf("chooser ran %d times; the attempt must place some tasks before failing", first)
			}
		} else if calls != first {
			t.Fatalf("repeat attempt consulted the chooser %d times, the first %d", calls, first)
		}
	}
}
