package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"mlfs/internal/core"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
)

// Test files are outside mlfs-lint's scope, so math/rand here is fine:
// the shuffle below deliberately perturbs map insertion order.

// runWithAdmitOrder executes a run with the admitOrder seam installed.
func runWithAdmitOrder(t *testing.T, mk func() sched.Scheduler, perm func([]*job.Task) []*job.Task) *metrics.Result {
	t.Helper()
	s, err := New(Config{Cluster: testClusterCfg(), Source: smallSource(25, 17), Scheduler: mk()})
	if err != nil {
		t.Fatal(err)
	}
	s.admitOrder = perm
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock telemetry is the one sanctioned nondeterministic output
	// (annotated //mlfs:allow noclock in runScheduler); zero it before
	// comparing.
	res.Counters.SchedSeconds = 0
	return res
}

// TestResultsIndependentOfWaitingMapInsertionOrder seeds the waiting map
// in several randomized insertion orders and asserts bit-identical
// results. Go map iteration order varies with insertion history, so any
// scheduler (or simulator path) that ranged over the map without sorting
// would diverge here — this is the dynamic counterpart of the static
// mapiter analyzer.
func TestResultsIndependentOfWaitingMapInsertionOrder(t *testing.T) {
	schedulers := map[string]func() sched.Scheduler{
		"mlfh": func() sched.Scheduler { return core.NewMLFH() },
		"fifo": func() sched.Scheduler { return fifoGang{} },
	}
	for name, mk := range schedulers {
		t.Run(name, func(t *testing.T) {
			base := runWithAdmitOrder(t, mk, nil)
			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(1000 + trial)))
				shuffle := func(ts []*job.Task) []*job.Task {
					out := append([]*job.Task(nil), ts...)
					rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
					return out
				}
				got := runWithAdmitOrder(t, mk, shuffle)
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("trial %d: result depends on waiting-map insertion order\nbase: %+v\ngot:  %+v", trial, base, got)
				}
			}
		})
	}
}

// TestAdmitOrderSeamPermutes sanity-checks the seam itself: a reversing
// permutation must still queue every task exactly once.
func TestAdmitOrderSeamPermutes(t *testing.T) {
	s, err := New(Config{Cluster: testClusterCfg(), Source: smallSource(5, 2), Scheduler: fifoGang{}})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	s.admitOrder = func(ts []*job.Task) []*job.Task {
		calls++
		out := append([]*job.Task(nil), ts...)
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("admitOrder called %d times, want once per job (5)", calls)
	}
	if len(s.waiting) != 0 {
		t.Fatalf("%d tasks still waiting after full run", len(s.waiting))
	}
}
