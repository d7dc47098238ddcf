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
}

// TestResultFingerprints runs {mlfs, mlf-rl, tiresias, gandiva} × {no
// faults, MTTF 4 h} at 60 jobs and requires each Result to hash to its
// pinned fingerprint. The four schedulers have very different action
// mixes (Tiresias never migrates, Gandiva migrates heavily, MLF-RL
// trains a policy network, MLFS adds MLF-C's early stops), and the fault
// runs add evictions, rollbacks, restarts and kills. Other architectures
// may fuse floating-point multiply-adds and land on different bits, so
// the pins hold on amd64 only.
func TestResultFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full simulations")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are pinned for amd64 floating point")
	}
	for _, name := range []string{"mlfs", "mlf-rl", "tiresias", "gandiva"} {
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
