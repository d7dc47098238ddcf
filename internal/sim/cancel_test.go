package sim

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"mlfs/internal/core"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// cancelSim builds the run the cancellation tests share: 12 jobs
// arriving over four hours on the test cluster under MLF-H, so early
// jobs train while later ones are still unadmitted.
func cancelSim(t *testing.T) *Simulator {
	t.Helper()
	tr := trace.Generate(trace.GenConfig{Jobs: 12, Seed: 4, DurationSec: 4 * 3600})
	s, err := New(Config{Cluster: testClusterCfg(), Source: trace.NewSliceSource(tr), Scheduler: core.NewMLFH()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stepUntil runs RunStep until cond holds.
func stepUntil(t *testing.T, s *Simulator, cond func() bool) {
	t.Helper()
	for !cond() {
		more, err := s.RunStep()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			t.Fatal("setup: run ended before the condition held")
		}
	}
}

// tallyOf returns the tally of the retired job simIndex.
func tallyOf(t *testing.T, s *Simulator, simIndex int) metrics.Tally {
	t.Helper()
	for _, tl := range s.tallies {
		if tl.SimIndex == simIndex {
			return tl
		}
	}
	t.Fatalf("job %d has not retired", simIndex)
	return metrics.Tally{}
}

// trainingJob returns a live job with at least half its iterations to
// go, so a cancel a few ticks later still finds it live.
func trainingJob(t *testing.T, s *Simulator) *job.Job {
	t.Helper()
	stepUntil(t, s, func() bool {
		for _, j := range s.active {
			if j.State == job.Running && j.Progress < float64(j.MaxIterations)/2 {
				return true
			}
		}
		return false
	})
	for _, j := range s.active {
		if j.State == job.Running && j.Progress < float64(j.MaxIterations)/2 {
			return j
		}
	}
	panic("unreachable")
}

// TestCancelAtApplicationPoints pins the four rules of CancelAt: a live
// job cancelled at or before Now dies at once; an unadmitted one dies
// right after the RunStep that admits it; a future stamp fires at the
// start of the first RunStep whose clock has reached it; a done job is
// left alone.
func TestCancelAtApplicationPoints(t *testing.T) {
	s := cancelSim(t)
	j := trainingJob(t, s)
	if s.Job(j.SimIndex) != j {
		t.Fatalf("Job(%d) does not find the live job", j.SimIndex)
	}
	s.CancelAt(j.SimIndex, s.now)
	if j.State != job.Killed || j.FinishTime != s.now || s.Job(j.SimIndex) != nil {
		t.Fatalf("live cancel: state %v, finish %v at now %v", j.State, j.FinishTime, s.now)
	}

	last := s.total - 1
	if last < s.pending {
		t.Fatal("setup: the last job is already admitted")
	}
	s.CancelAt(last, s.now)
	stepUntil(t, s, func() bool { return s.pending > last })
	if tl := tallyOf(t, s, last); job.State(tl.State) != job.Killed || tl.Finish != s.now {
		t.Fatalf("deferred cancel: state %v, finish %v, want killed at %v", job.State(tl.State), tl.Finish, s.now)
	}
	if len(s.cancelDeferred) != 0 {
		t.Fatalf("deferred queue holds %v after its job was admitted", s.cancelDeferred)
	}

	k := trainingJob(t, s)
	start := s.now
	s.CancelAt(k.SimIndex, start+150) // between the ticks at +120 and +180
	for s.now < start+180 {
		if _, err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
		if k.Done() {
			t.Fatalf("future cancel fired early, at %v", s.now)
		}
	}
	if _, err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	if k.State != job.Killed || k.FinishTime != start+180 {
		t.Fatalf("future cancel: state %v, finish %v, want killed at %v", k.State, k.FinishTime, start+180)
	}

	jt, kt := tallyOf(t, s, j.SimIndex), tallyOf(t, s, k.SimIndex)
	s.CancelAt(j.SimIndex, s.now)
	s.CancelAt(k.SimIndex, s.now+60)
	for range 2 {
		if _, err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for _, tl := range s.tallies {
		if tl.SimIndex == j.SimIndex || tl.SimIndex == k.SimIndex {
			n++
		}
	}
	if n != 2 || tallyOf(t, s, j.SimIndex) != jt || tallyOf(t, s, k.SimIndex) != kt {
		t.Fatal("a cancel of a done job changed it")
	}
}

// TestCancelAtQueueIsStable: queued cancels fire in stamp order, and
// cancels stamped alike in call order.
func TestCancelAtQueueIsStable(t *testing.T) {
	s := cancelSim(t)
	trainingJob(t, s)
	stepUntil(t, s, func() bool { return len(s.active) >= 3 })
	a, b, c := s.active[0], s.active[1], s.active[2]
	at := s.now + 60
	s.CancelAt(c.SimIndex, at)
	s.CancelAt(a.SimIndex, at+60)
	s.CancelAt(b.SimIndex, at)
	for range 3 {
		if _, err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
	}
	if c.FinishTime != at || b.FinishTime != at || a.FinishTime != at+60 {
		t.Fatalf("finish times c %v b %v a %v, want %v %v %v", c.FinishTime, b.FinishTime, a.FinishTime, at, at, at+60)
	}
	var order []int
	for _, tl := range s.tallies {
		if tl.Finish == at && job.State(tl.State) == job.Killed {
			order = append(order, tl.SimIndex)
		}
	}
	if len(order) != 2 || order[0] != c.SimIndex || order[1] != b.SimIndex {
		t.Fatalf("same-stamp cancels retired in order %v, want [%d %d]", order, c.SimIndex, b.SimIndex)
	}
}

// TestCancelQueuesSurviveSnapshot: a snapshot holding one queued future
// cancel and one deferred cancel restores into a run that continues bit
// for bit like the uninterrupted one, both cancels applied.
func TestCancelQueuesSurviveSnapshot(t *testing.T) {
	a := cancelSim(t)
	k := trainingJob(t, a).SimIndex
	u := a.total - 1
	if u < a.pending {
		t.Fatal("setup: the last job is already admitted")
	}
	a.CancelAt(k, a.now+600)
	a.CancelAt(u, a.now)
	payload, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}

	b := cancelSim(t)
	if err := b.Restore(payload); err != nil {
		t.Fatal(err)
	}
	if len(b.cancelQueue) != 1 || len(b.cancelDeferred) != 1 {
		t.Fatalf("restored queues: %d queued, %d deferred, want 1 and 1", len(b.cancelQueue), len(b.cancelDeferred))
	}
	got, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{k, u} {
		if tl := tallyOf(t, b, i); job.State(tl.State) != job.Killed {
			t.Fatalf("job %d ended %v, want killed", i, job.State(tl.State))
		}
	}
	want.Counters.ZeroVolatile()
	got.Counters.ZeroVolatile()
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("restored run diverged:\nwant %s\ngot  %s", wb, gb)
	}
}

// TestRestoreRejectsBadCancelState: Restore refuses every state the
// new code relies on but the run cannot produce — an active set out of
// SimIndex order (Job binary-searches it), a cancel-queue entry out of
// range, non-finite or out of order, and a tally in a live state.
func TestRestoreRejectsBadCancelState(t *testing.T) {
	midRun := func() *Simulator {
		s := cancelSim(t)
		stepUntil(t, s, func() bool { return len(s.tallies) > 0 && len(s.active) >= 2 && s.pending < s.total })
		return s
	}
	restore := func(s *Simulator) error {
		t.Helper()
		payload, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return cancelSim(t).Restore(payload)
	}
	s := midRun()
	s.CancelAt(s.total-1, s.now)
	s.CancelAt(0, s.now+60)
	if err := restore(s); err != nil {
		t.Fatalf("control: unedited snapshot does not restore: %v", err)
	}

	for _, tc := range []struct {
		name string
		edit func(s *Simulator)
	}{
		{"active out of order", func(s *Simulator) { s.active[0], s.active[1] = s.active[1], s.active[0] }},
		{"deferred cancel of an admitted job", func(s *Simulator) { s.cancelDeferred = append(s.cancelDeferred, 0) }},
		{"deferred cancel past the workload", func(s *Simulator) { s.cancelDeferred = append(s.cancelDeferred, s.total) }},
		{"queued index out of range", func(s *Simulator) {
			s.cancelQueue = append(s.cancelQueue, queuedCancel{simIndex: -1, at: s.now + 60})
		}},
		{"queued NaN stamp", func(s *Simulator) {
			s.cancelQueue = append(s.cancelQueue, queuedCancel{simIndex: 0, at: math.NaN()})
		}},
		{"queued infinite stamp", func(s *Simulator) {
			s.cancelQueue = append(s.cancelQueue, queuedCancel{simIndex: 0, at: math.Inf(1)})
		}},
		{"queue out of order", func(s *Simulator) {
			s.cancelQueue = append(s.cancelQueue, queuedCancel{simIndex: 1, at: s.now + 120}, queuedCancel{simIndex: 0, at: s.now + 60})
		}},
		{"live tally state", func(s *Simulator) { s.tallies[0].State = uint8(job.Running) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := midRun()
			tc.edit(s)
			if err := restore(s); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("Restore = %v, want ErrCorrupt", err)
			}
		})
	}
}
