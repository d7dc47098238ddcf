package cluster

import (
	"math/rand"

	"mlfs/internal/snapshot"
)

// FaultProcess generates a deterministic stream of server failure and
// repair events from seeded exponential inter-arrival processes — the
// standard MTTF/MTTR renewal model (each server fails after
// Exp(MTTF) up-time and returns after Exp(MTTR) down-time,
// independently of the others).
//
// Determinism contract: every server draws from its own *rand.Rand,
// seeded once from a master stream, so the event sequence is a pure
// function of (seed, server count, MTTF, MTTR) — independent of tick
// length and scheduler choice. Events are
// popped in (time, server-index) order; ties break toward the lowest
// server index. The process never reads the wall clock (noclock) and
// never ranges a map (mapiter).
type FaultProcess struct {
	mttf float64
	mttr float64
	rngs []*rand.Rand
	// srcs are the draw-counting sources under rngs: they delegate to the
	// standard math/rand source (identical bit-streams) while recording
	// the stream position, which is what makes the renewal process
	// snapshottable (EncodeState/DecodeState).
	srcs []*snapshot.Source
	down []bool    // shadow up/down state: true ⇒ next transition is a repair
	next []float64 // absolute sim-time (seconds) of each server's next transition
}

// NewFaultProcess builds the event stream for n servers with the given
// mean time to failure / repair (seconds, both must be > 0) and seed.
// Equal seeds reproduce equal event sequences.
func NewFaultProcess(n int, mttfSec, mttrSec float64, seed int64) *FaultProcess {
	master := rand.New(snapshot.NewSource(seed))
	f := &FaultProcess{
		mttf: mttfSec,
		mttr: mttrSec,
		rngs: make([]*rand.Rand, n),
		srcs: make([]*snapshot.Source, n),
		down: make([]bool, n),
		next: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.srcs[i] = snapshot.NewSource(master.Int63())
		f.rngs[i] = rand.New(f.srcs[i])
		f.next[i] = f.rngs[i].ExpFloat64() * mttfSec
	}
	return f
}

// EncodeState serialises the renewal-process state: per server, the RNG
// stream position plus the pending transition (down flag and time).
func (f *FaultProcess) EncodeState(w *snapshot.Writer) {
	w.Int(len(f.next))
	for i := range f.next {
		w.Uint64(f.srcs[i].Draws())
		w.Bool(f.down[i])
		w.Float64(f.next[i])
	}
}

// DecodeState restores a process freshly built by NewFaultProcess with
// the same (n, mttf, mttr, seed) to the encoded mid-run state: each
// per-server RNG is replayed to its recorded stream position, and the
// pending transitions are overwritten with the exact snapshotted values.
func (f *FaultProcess) DecodeState(r *snapshot.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(f.next) {
		return snapshot.Mismatchf("fault process has %d servers, snapshot %d", len(f.next), n)
	}
	for i := 0; i < n; i++ {
		draws := r.Uint64()
		down := r.Bool()
		next := r.Float64()
		if err := r.Err(); err != nil {
			return err
		}
		f.srcs[i].AdvanceTo(draws)
		f.down[i] = down
		f.next[i] = next
	}
	return nil
}

// Next pops the earliest pending transition at or before horizon
// (seconds of sim time). It returns the server index, whether the
// server goes down (true) or comes back up (false), and the event time;
// ok is false when no transition falls within the horizon. Calling Next
// repeatedly with the same horizon drains all due events in
// (time, server) order.
func (f *FaultProcess) Next(horizon float64) (server int, down bool, at float64, ok bool) {
	best := -1
	for i := range f.next {
		if f.next[i] > horizon {
			continue
		}
		// Strict < with ascending scan: the earliest event wins, ties
		// break toward the lowest server index — deterministic without
		// exact float equality.
		if best < 0 || f.next[i] < f.next[best] {
			best = i
		}
	}
	if best < 0 {
		return 0, false, 0, false
	}
	at = f.next[best]
	down = !f.down[best]
	f.down[best] = down
	mean := f.mttf
	if down {
		mean = f.mttr // downtime until the matching repair
	}
	f.next[best] = at + f.rngs[best].ExpFloat64()*mean
	return best, down, at, true
}
