package baselines

import (
	"mlfs/internal/job"
	"mlfs/internal/sched"
)

// FIFO places pending jobs strictly in arrival order (job ids are
// assigned in submission order) with first-fit server choice and no
// preemption, migration or overload handling — the textbook batch
// baseline, and the simplest possible subject for resume bit-identity
// testing.
//
// FIFO and SRTF consume the round change journal (sched.Incremental)
// with a RoundSkipper: when the journal is empty, the cluster epoch and
// HR are unchanged and the previous round provably did nothing, the
// whole round is skipped as an O(1) no-op. Ordering never enters the
// proof — a round that places nothing has no order-dependent side
// effects — so the skip is bit-identical for any job ordering rule.
type FIFO struct {
	skip sched.RoundSkipper //mlfs:derived skip proof, rebuilt from live rounds
}

// NewFIFO returns the FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements sched.Scheduler.
func (*FIFO) Name() string { return "fifo" }

// Dirty implements sched.Incremental.
func (f *FIFO) Dirty(jobs []*job.Job) { f.skip.NoteDirty(jobs) }

// Schedule implements sched.Scheduler.
func (f *FIFO) Schedule(ctx *sched.Context) {
	if f.skip.CanSkip(ctx) {
		ctx.NoteSkippedRound()
		return
	}
	orderedGangPlace(ctx, func(a, b *job.Job) bool { return a.ID < b.ID }, sched.FirstFit)
	f.skip.Record(ctx)
}

// SRTF places pending jobs shortest-remaining-work-first (estimated
// compute left across the job's critical path), the classic
// JCT-minimising heuristic, with first-fit server choice and no
// preemption. See FIFO for the round-skip contract.
type SRTF struct {
	skip sched.RoundSkipper //mlfs:derived skip proof, rebuilt from live rounds
	buf  []keyedJob         //mlfs:derived scratch: keyed pending-job order
}

// NewSRTF returns the SRTF scheduler.
func NewSRTF() *SRTF { return &SRTF{} }

// Name implements sched.Scheduler.
func (*SRTF) Name() string { return "srtf" }

// Dirty implements sched.Incremental.
func (s *SRTF) Dirty(jobs []*job.Job) { s.skip.NoteDirty(jobs) }

// Schedule implements sched.Scheduler.
func (s *SRTF) Schedule(ctx *sched.Context) {
	if s.skip.CanSkip(ctx) {
		ctx.NoteSkippedRound()
		return
	}
	s.buf = keyedGangPlace(ctx, s.buf, remainingWorkSec, sched.FirstFit)
	s.skip.Record(ctx)
}
