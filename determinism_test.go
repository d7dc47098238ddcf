package mlfs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// resultFingerprints pins, per scheduler and failure setting, the first
// eight bytes (hex) of the SHA-256 of the Result JSON with the volatile
// counters zeroed. Every value here was taken from the simulator as it
// was before the single-threaded advance, so a refactor of the hot path
// that keeps these fingerprints keeps every reported number bit for bit.
// A deliberate change of simulation semantics updates them (the failure
// message prints the new value); nothing else may.
var resultFingerprints = map[string]string{
	"mlfs/mttf=0":         "3cfd5c2303ce7b7b",
	"mlfs/mttf=14400":     "b4a24e82a5404fb0",
	"mlf-rl/mttf=0":       "47d9340d5276321e",
	"mlf-rl/mttf=14400":   "01b02ac7af32032f",
	"tiresias/mttf=0":     "f6f14787cc628849",
	"tiresias/mttf=14400": "c119369761cb252b",
	"gandiva/mttf=0":      "d216da3def1a5e22",
	"gandiva/mttf=14400":  "25ef50a3d825d2c2",
	"rl/mttf=0":           "08da8ef8ae2391e6",
	"rl/mttf=14400":       "3c069f53f4a2a12b",
}

// TestResultFingerprints runs {mlfs, mlf-rl, tiresias, gandiva, rl} ×
// {no faults, MTTF 4 h} at 60 jobs and requires each Result to hash to
// its pinned fingerprint. The five schedulers have very different action
// mixes (Tiresias never migrates, Gandiva migrates heavily, MLF-RL and
// rl train a policy network, MLFS adds MLF-C's early stops), and the fault
// runs add evictions, rollbacks, restarts and kills. Other architectures
// may fuse floating-point multiply-adds and land on different bits, so
// the pins hold on amd64 only.
func TestResultFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full simulations")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are pinned for amd64 floating point")
	}
	for _, name := range []string{"mlfs", "mlf-rl", "tiresias", "gandiva", "rl"} {
		for _, mttf := range []float64{0, 4 * 3600} {
			name, mttf := name, mttf
			key := fmt.Sprintf("%s/mttf=%.0f", name, mttf)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				opts := Options{Scheduler: name, Jobs: 60, Seed: 11, SchedOpts: SchedulerOptions{Seed: 11}}
				if mttf > 0 {
					opts.Failures = FailureConfig{MTTFSec: mttf, MTTRSec: 600, Seed: 5}
				}
				res, err := Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if mttf > 0 && res.Counters.ServerFailures == 0 {
					t.Fatal("fault cell vacuous: no failures injected")
				}
				res.Counters.ZeroVolatile()
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				got := hex.EncodeToString(sum[:8])
				if want := resultFingerprints[key]; got != want {
					t.Fatalf("Result fingerprint %q, pinned %q: simulation results changed", got, want)
				}
			})
		}
	}
}

// paperSimFingerprints pins, like resultFingerprints, full mlfs runs
// on the 550-server simulation cluster, where every MLF-H destination
// choice (MLF-RL's imitation targets) and relief round scans hundreds of
// candidates. The values were taken from the code that fit-checked every
// candidate, took every distance in full and rescanned the underloaded
// set before every migration (the reference in
// internal/core/mlfhref_test.go), so they pin that the lazy fit checks,
// the pruning and the maintained underloaded set change no bit.
var paperSimFingerprints = map[string]string{
	"mlfs/mttf=0":     "9feb8745a3faaab4",
	"mlfs/mttf=14400": "c918bba2f3f85fa6",
}

// TestPaperSimFingerprints runs mlfs × {no faults, MTTF 4 h} at 300
// jobs on the paper-sim cluster and requires each Result to hash to its
// pinned fingerprint (amd64 only, as above).
func TestPaperSimFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 550-server simulations")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are pinned for amd64 floating point")
	}
	for _, mttf := range []float64{0, 4 * 3600} {
		mttf := mttf
		key := fmt.Sprintf("mlfs/mttf=%.0f", mttf)
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			opts := Options{Scheduler: "mlfs", Preset: PaperSim, Jobs: 300, Seed: 3, SchedOpts: SchedulerOptions{Seed: 3}}
			if mttf > 0 {
				opts.Failures = FailureConfig{MTTFSec: mttf, MTTRSec: 600, Seed: 5}
			}
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Migrations == 0 || mttf > 0 && res.Counters.ServerFailures == 0 {
				t.Fatalf("vacuous run: %d migrations, %d failures", res.Counters.Migrations, res.Counters.ServerFailures)
			}
			res.Counters.ZeroVolatile()
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got := hex.EncodeToString(sum[:8])
			if want := paperSimFingerprints[key]; got != want {
				t.Fatalf("Result fingerprint %q, pinned %q: simulation results changed", got, want)
			}
		})
	}
}

// paperRealFingerprints pins, like resultFingerprints, the three
// learned schedulers at 620 jobs on the paper-real cluster (seed 1, the
// published Figure-4 cell). Their policies run past the warm-up there,
// so a one-ulp change in the discounted reward or the training loop
// shows here when the 60-job cells and the 155-job published rows miss
// it.
var paperRealFingerprints = map[string]string{
	"rl":     "e30d33cfea4c5712",
	"mlf-rl": "73b29d6b474dbabd",
	"mlfs":   "1a6394971faa4c88",
}

// TestPaperRealFingerprints runs each scheduler of paperRealFingerprints
// at 620 jobs on the paper-real cluster and requires its Result to hash
// to the pin (amd64 only, as above).
func TestPaperRealFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("three 620-job simulations")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are pinned for amd64 floating point")
	}
	for _, name := range []string{"rl", "mlf-rl", "mlfs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Options{Scheduler: name, Preset: PaperReal, Jobs: 620, Seed: 1, SchedOpts: SchedulerOptions{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			res.Counters.ZeroVolatile()
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got := hex.EncodeToString(sum[:8])
			if want := paperRealFingerprints[name]; got != want {
				t.Fatalf("Result fingerprint %q, pinned %q: simulation results changed", got, want)
			}
		})
	}
}

// TestFailureDeterminism pins that fault injection is a function of the
// seeds alone: two identically seeded runs with failures enabled must
// produce bit-identical Results, injected event sequence and every
// recovery effect (evictions, rollbacks, restarts, kills) included. It
// holds on every architecture, unlike the pinned fingerprints above, and
// covers TensorFlow's static allocation, which they do not.
func TestFailureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism check")
	}
	failures := FailureConfig{MTTFSec: 4 * 3600, MTTRSec: 600, Seed: 5}
	for _, name := range []string{"mlfs", "tiresias", "gandiva", "tensorflow"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func() *Result {
				res, err := Run(Options{
					Scheduler: name,
					Jobs:      60,
					Seed:      11,
					SchedOpts: SchedulerOptions{Seed: 11},
					Failures:  failures,
				})
				if err != nil {
					t.Fatal(err)
				}
				res.Counters.ZeroVolatile()
				return res
			}
			first, second := run(), run()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("identically seeded fault-injected runs differ:\nfirst:  %+v\nsecond: %+v", first, second)
			}
			if first.Counters.ServerFailures == 0 {
				t.Fatal("determinism check vacuous: no failures injected")
			}
		})
	}
}
