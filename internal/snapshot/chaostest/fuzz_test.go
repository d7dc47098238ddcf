package chaostest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mlfs"
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
// injection active, plus truncations of it.
func FuzzSnapshotDecode(f *testing.F) {
	framed, payload := realSnapshot(f)
	f.Add(framed)
	f.Add(payload)
	f.Add(framed[:len(framed)/2])
	f.Add(framed[:18]) // header cut mid-trailer
	f.Add(payload[:len(payload)/3])
	f.Add([]byte("MLFSSNAP"))
	f.Add([]byte{})

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
