// Package predictor estimates total job running time, following the
// Optimus-style approach the paper adopts (§3.1): jobs that ran before are
// predicted from history (~89% accuracy in the paper); unseen jobs are
// sample-run briefly and predicted with lower accuracy (~70%).
//
// Nothing in the simulator imports this package yet: deadlines and
// remaining times come from job.EstimateRuntime, the exact I_max × ideal
// iteration time, so no prediction error reaches the schedulers and every
// published result is an exact-information upper bound (DESIGN.md §5).
//
// Determinism: prediction noise comes from a single source seeded at
// construction, so a fixed seed reproduces the same errors in the same
// order. The package is not in the lint DeterministicPaths registry; the
// repo-wide epochguard, floatcmp and pkgdoc checks still apply.
package predictor

import (
	"fmt"
	"math/rand"
	"sync"

	"mlfs/internal/job"
)

// profileKey groups jobs that share a runtime profile: same algorithm
// family and parallelism configuration.
type profileKey struct {
	family        int
	dataParallel  int
	modelParallel int
}

func keyOf(j *job.Job) profileKey {
	return profileKey{int(j.Family), j.DataParallel, j.ModelParallel}
}

// RuntimePredictor predicts job runtimes and learns from completions.
// It is safe for concurrent use.
type RuntimePredictor struct {
	mu   sync.Mutex
	rng  *rand.Rand
	hist map[profileKey]*profile

	// KnownNoise and NewNoise are the relative errors applied to
	// predictions for previously-seen and unseen profiles. Defaults follow
	// the paper's reported accuracies: 0.11 (≈89%) and 0.30 (≈70%).
	KnownNoise float64
	NewNoise   float64
}

type profile struct {
	// mean ratio of actual runtime to ideal critical-path runtime.
	ratioSum float64
	n        int
}

// New returns a predictor seeded for deterministic noise.
func New(seed int64) *RuntimePredictor {
	return &RuntimePredictor{
		rng:        rand.New(rand.NewSource(seed)),
		hist:       make(map[profileKey]*profile),
		KnownNoise: 0.11,
		NewNoise:   0.30,
	}
}

// Predict returns the estimated total runtime t_e for j and whether the
// prediction came from history (known=true) or a sample run.
func (p *RuntimePredictor) Predict(j *job.Job) (estimate float64, known bool) {
	ideal := float64(j.MaxIterations) * j.IdealIterationSec()
	p.mu.Lock()
	defer p.mu.Unlock()
	pr, ok := p.hist[keyOf(j)]
	if ok && pr.n > 0 {
		mean := pr.ratioSum / float64(pr.n)
		return ideal * mean * p.noise(p.KnownNoise), true
	}
	// Sample run: assume moderate slowdown over the ideal critical path
	// (queueing/communication), with the larger new-job error.
	return ideal * 1.2 * p.noise(p.NewNoise), false
}

func (p *RuntimePredictor) noise(rel float64) float64 {
	f := 1 + rel*p.rng.NormFloat64()
	if f < 0.2 {
		f = 0.2
	}
	return f
}

// Record feeds back an observed actual runtime for a completed job.
func (p *RuntimePredictor) Record(j *job.Job, actual float64) error {
	ideal := float64(j.MaxIterations) * j.IdealIterationSec()
	if ideal <= 0 || actual <= 0 {
		return fmt.Errorf("predictor: non-positive runtime (ideal=%v actual=%v)", ideal, actual)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := keyOf(j)
	pr := p.hist[k]
	if pr == nil {
		pr = &profile{}
		p.hist[k] = pr
	}
	pr.ratioSum += actual / ideal
	pr.n++
	return nil
}

// Profiles returns the number of distinct (family, parallelism) profiles
// with recorded history.
func (p *RuntimePredictor) Profiles() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.hist)
}
