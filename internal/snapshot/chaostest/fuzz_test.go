package chaostest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mlfs"
	"mlfs/internal/job"
	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
)

// fuzzTrace is shared across fuzz executions: traces are read-only (each
// simulator streams it through its own SliceSource), so one generation
// suffices.
var fuzzTrace = sync.OnceValue(func() *mlfs.Trace {
	return mlfs.GenerateTrace(6, 1, 600)
})

// fuzzSim builds the tiny simulator every fuzz execution restores into.
func fuzzSim(t testing.TB) *sim.Simulator {
	t.Helper()
	cfg := chaosConfig(t, "mlf-h", 21600)
	cfg.Source = mlfs.NewSliceSource(fuzzTrace())
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// realSnapshot produces genuine snapshot bytes for the seed corpus: a
// framed file image and its raw payload, taken mid-run with failures
// active.
func realSnapshot(t testing.TB) (framed, payload []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.snap")
	cfg := chaosConfig(t, "mlf-h", 21600)
	cfg.Source = mlfs.NewSliceSource(fuzzTrace())
	cfg.SnapshotEvery = 40
	cfg.SnapshotPath = path
	cfg.StopAtTick = 40
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	framed, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err = snapshot.Decode(framed)
	if err != nil {
		t.Fatal(err)
	}
	return framed, payload
}

// cancelSnapshots produces seed payloads around the cancellation
// queues: a real mid-run image holding a deferred cancel of an
// unadmitted job and a queued future one, and two images edited through
// the simulator's public views into states Restore must refuse — a
// tally in a live state, and an active set out of SimIndex order.
func cancelSnapshots(t testing.TB) (valid []byte, crafted [][]byte) {
	t.Helper()
	stepUntil := func(s *sim.Simulator, cond func() bool) {
		for !cond() {
			if more, err := s.RunStep(); err != nil || !more {
				t.Fatalf("setup: run ended before the condition held (err %v)", err)
			}
		}
	}
	snap := func(s *sim.Simulator) []byte {
		b, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	last := len(fuzzTrace().Records) - 1

	s := fuzzSim(t)
	stepUntil(s, func() bool { return len(s.ActiveJobs()) > 0 })
	if s.Consumed() > last {
		t.Fatal("setup: the last job is already admitted")
	}
	s.CancelAt(last, s.Now())
	s.CancelAt(0, s.Now()+3600)
	valid = snap(s)

	s = fuzzSim(t)
	stepUntil(s, func() bool { return len(s.Tallies()) > 0 })
	s.Tallies()[0].State = uint8(job.Running)
	crafted = append(crafted, snap(s))

	s = fuzzSim(t)
	stepUntil(s, func() bool { return len(s.ActiveJobs()) >= 2 })
	a, b := s.ActiveJobs()[0], s.ActiveJobs()[1]
	a.SimIndex, b.SimIndex = b.SimIndex, a.SimIndex
	crafted = append(crafted, snap(s))

	if err := fuzzSim(t).Restore(valid); err != nil {
		t.Fatalf("the cancel-queue image does not restore: %v", err)
	}
	for i, b := range crafted {
		if err := fuzzSim(t).Restore(b); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("crafted image %d: Restore = %v, want ErrCorrupt", i, err)
		}
	}
	return valid, crafted
}

// snapshotErrTyped reports whether err belongs to the snapshot error
// taxonomy callers are promised: corrupt, wrong version, or wrong run.
func snapshotErrTyped(err error) bool {
	return errors.Is(err, snapshot.ErrCorrupt) ||
		errors.Is(err, snapshot.ErrVersion) ||
		errors.Is(err, snapshot.ErrMismatch)
}

// FuzzSnapshotDecode feeds mutated and truncated snapshot bytes through
// both decoding layers — the file frame (Decode) and the full simulator
// state overlay (Restore) — asserting the contract the CLI degradation
// path relies on: a typed error or success, never a panic, no matter
// the input. The corpus seeds from a real mid-run snapshot with fault
// injection active, plus truncations of it, and from images around the
// cancellation queues (cancelSnapshots).
func FuzzSnapshotDecode(f *testing.F) {
	framed, payload := realSnapshot(f)
	f.Add(framed)
	f.Add(payload)
	f.Add(framed[:len(framed)/2])
	f.Add(framed[:18]) // header cut mid-trailer
	f.Add(payload[:len(payload)/3])
	f.Add([]byte("MLFSSNAP"))
	f.Add([]byte{})
	valid, crafted := cancelSnapshots(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-len(valid)/4])
	for _, b := range crafted {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Layer 1: the frame. Either a valid payload comes back or a
		// typed error does.
		if pl, err := snapshot.Decode(data); err == nil {
			restoreArbitrary(t, pl)
		} else if !snapshotErrTyped(err) {
			t.Fatalf("Decode returned untyped error %v", err)
		}
		// Layer 2: the payload decoder, reached directly so the fuzzer
		// is not stuck behind the CRC.
		restoreArbitrary(t, data)
	})
}

// restoreArbitrary overlays arbitrary bytes onto a fresh simulator and
// checks the error contract. A nil error is legal only for byte-exact
// images of this run's state — verify by re-encoding.
func restoreArbitrary(t testing.TB, payload []byte) {
	s := fuzzSim(t)
	err := s.Restore(payload)
	if err != nil {
		if !snapshotErrTyped(err) {
			t.Fatalf("Restore returned untyped error %v", err)
		}
		return
	}
	re, err := s.Snapshot()
	if err != nil {
		t.Fatalf("restored simulator cannot re-snapshot: %v", err)
	}
	if !bytes.Equal(re, payload) {
		t.Fatalf("Restore accepted %d bytes that do not re-encode to themselves", len(payload))
	}
}
