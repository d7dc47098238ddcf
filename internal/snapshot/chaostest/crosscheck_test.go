package chaostest

import (
	"fmt"
	"reflect"
	"testing"

	"mlfs"
	"mlfs/internal/sim"
)

// This file is the sparse/dense cross-check suite: the sparse
// event-driven core (the default) must reproduce the dense tick loop
// bit for bit across the same scheduler × failure matrix
// the crash-replay chaos test exercises, on both chaos workloads — the
// generated trace and the synthetic Philly stream. Together with
// TestChaosCrashReplay (which runs in the sparse default and therefore
// covers snapshot-mid-run + resume under the sparse core) this is the
// acceptance evidence that the sparse core preserves tick semantics
// exactly.

// TestSparseDenseCrossCheck runs every config of the chaos matrix twice
// — once under the default sparse core, once with DenseTicks — and
// requires bitwise-equal results. The generated-trace cases keep their
// historical names; the Philly-stream cases are prefixed "stream/".
func TestSparseDenseCrossCheck(t *testing.T) {
	for _, wl := range []struct {
		prefix string
		config func(testing.TB, string, float64) sim.Config
	}{{"", chaosConfig}, {"stream/", sourceChaosConfig}} {
		for _, name := range []string{"fifo", "srtf", "mlf-h", "mlf-rl"} {
			for _, mttf := range []float64{0, 21600} {
				wl, name, mttf := wl, name, mttf
				t.Run(fmt.Sprintf("%s%s/workers=1/mttf=%.0f", wl.prefix, name, mttf), func(t *testing.T) {
					t.Parallel()
					sparse := runToEnd(t, wl.config(t, name, mttf))
					dcfg := wl.config(t, name, mttf)
					dcfg.DenseTicks = true
					dense := runToEnd(t, dcfg)
					if !reflect.DeepEqual(sparse, dense) {
						t.Fatalf("sparse and dense runs diverged:\nsparse: %+v\ndense:  %+v", sparse, dense)
					}
				})
			}
		}
	}
}

// sourceChaosConfig is chaosConfig with the workload streamed from the
// synthetic Philly source instead of the generated trace.
func sourceChaosConfig(t testing.TB, name string, mttf float64) sim.Config {
	t.Helper()
	cfg := chaosConfig(t, name, mttf)
	cfg.Source = mlfs.SyntheticPhillySource(16, 1, 1200)
	return cfg
}

// TestChaosCrashReplaySourceMode repeats the crash–replay chaos run on
// the synthetic Philly stream: kill at seeded ticks, restore from the
// latest snapshot in a fresh simulator (which must re-stream the
// workload prefix), and match the uninterrupted run bit for bit. The
// "flip/" cases alternate DenseTicks between segments, since a resume
// may legally switch tick mode: every restore lands in the other mode.
func TestChaosCrashReplaySourceMode(t *testing.T) {
	seed := int64(100)
	for _, flip := range []bool{false, true} {
		prefix := ""
		if flip {
			prefix = "flip/"
		}
		for _, name := range []string{"fifo", "mlf-rl"} {
			for _, mttf := range []float64{0, 21600} {
				seed++
				flip, name, mttf, seed := flip, name, mttf, seed
				t.Run(fmt.Sprintf("%s%s/mttf=%.0f", prefix, name, mttf), func(t *testing.T) {
					t.Parallel()
					calls := 0
					runChaosCfg(t, func() sim.Config {
						cfg := sourceChaosConfig(t, name, mttf)
						calls++
						cfg.DenseTicks = flip && calls%2 == 0
						return cfg
					}, seed)
				})
			}
		}
	}
}
