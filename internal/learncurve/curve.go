// Package learncurve models how an ML job's loss and accuracy evolve with
// training iterations, and implements the accuracy prediction and optimal
// early-stopping (OptStop) machinery MLFS relies on (§3.1, §3.5 of the
// paper, following Domhan et al. for learning-curve extrapolation and SLAQ
// for the diminishing-returns assumption).
//
// The paper's scheduler never inspects model internals; it only consumes
// (iteration index, per-iteration loss reduction, achieved/predicted
// accuracy). This package supplies exactly those quantities analytically,
// replacing the PyTorch training runs of the paper's testbed (see
// DESIGN.md, substitution table).
//
// Determinism: curve parameters are sampled once from an explicitly
// seeded source; evaluation afterwards is closed-form arithmetic, so a
// fixed seed reproduces identical accuracy trajectories. The per-job
// observation-noise stream is a snapshot.Source, so its position
// survives snapshot/restore. The package is enrolled in the lint
// DeterministicPaths registry (mapiter, noclock, sharedcapture), plus
// the repo-wide epochguard, floatcmp and pkgdoc checks.
package learncurve

import (
	"fmt"
	"math"
	"math/rand"

	"mlfs/internal/snapshot"
)

// Curve is a parametric learning curve.
//
// Loss follows an inverse power law with diminishing returns,
//
//	l(i) = Floor + (L0-Floor) / (1+i)^Decay,
//
// so the per-iteration loss reduction δl_i shrinks with i — the temporal
// ML feature MLFS exploits ("earlier iterations are more important",
// §3.3.1). Accuracy follows a saturating exponential,
//
//	a(i) = AccMax · (1 − e^(−Rate·i)).
type Curve struct {
	L0     float64 // loss before training
	Floor  float64 // asymptotic loss
	Decay  float64 // power-law exponent (> 0)
	AccMax float64 //mlfs:derived asymptotic accuracy in (0,1]; re-materialised from the trace record
	Rate   float64 // accuracy saturation rate (> 0)
	Noise  float64 // relative observation noise (0 disables)

	// rng drives the observation noise of ObservedAccuracy. It is backed
	// by src, a counting source, so the stream position survives
	// snapshot/restore: the noise a job sees after a resume is the same
	// noise it would have seen uninterrupted.
	rng *rand.Rand //mlfs:derived rebuilt around the replayed counting source
	src *snapshot.Source
}

// Validate reports whether the curve parameters are usable.
func (c *Curve) Validate() error {
	switch {
	case c.L0 <= c.Floor:
		return fmt.Errorf("learncurve: L0 (%v) must exceed Floor (%v)", c.L0, c.Floor)
	case c.Decay <= 0:
		return fmt.Errorf("learncurve: Decay must be positive, got %v", c.Decay)
	case c.AccMax <= 0 || c.AccMax > 1:
		return fmt.Errorf("learncurve: AccMax must be in (0,1], got %v", c.AccMax)
	case c.Rate <= 0:
		return fmt.Errorf("learncurve: Rate must be positive, got %v", c.Rate)
	case c.Noise < 0:
		return fmt.Errorf("learncurve: Noise must be non-negative, got %v", c.Noise)
	}
	return nil
}

// Seed attaches a deterministic noise source. Without a seed the curve is
// noiseless regardless of Noise.
func (c *Curve) Seed(seed int64) {
	c.src = snapshot.NewSource(seed)
	c.rng = rand.New(c.src)
}

// NoiseDraws returns the position of the observation-noise stream: how
// many raw values have been drawn since Seed. Zero on unseeded curves.
func (c *Curve) NoiseDraws() uint64 {
	if c.src == nil {
		return 0
	}
	return c.src.Draws()
}

// ReplayNoise moves the observation-noise stream to exactly n draws from
// the seed (snapshot restore). No-op on unseeded curves.
func (c *Curve) ReplayNoise(n uint64) {
	if c.src != nil {
		c.src.AdvanceTo(n)
	}
}

// Loss returns the true (noiseless) loss after i completed iterations.
func (c *Curve) Loss(i int) float64 {
	if i < 0 {
		i = 0
	}
	return c.Floor + (c.L0-c.Floor)/math.Pow(1+float64(i), c.Decay)
}

// LossReduction returns δl_i, the loss reduction achieved by iteration i
// (1-based: iteration 1 moves the loss from l(0) to l(1)).
func (c *Curve) LossReduction(i int) float64 {
	if i < 1 {
		return 0
	}
	return c.Loss(i-1) - c.Loss(i)
}

// CumLossReduction returns Σ_{j=1..i} δl_j, the overall loss reduction of
// all completed iterations (the denominator of the temporal priority term
// in Eq. 2).
func (c *Curve) CumLossReduction(i int) float64 {
	if i < 0 {
		i = 0
	}
	return c.Loss(0) - c.Loss(i)
}

// Accuracy returns the true accuracy after i completed iterations.
func (c *Curve) Accuracy(i int) float64 {
	if i <= 0 {
		return 0
	}
	return c.AccMax * (1 - math.Exp(-c.Rate*float64(i)))
}

// ObservedAccuracy returns the accuracy after i iterations with
// multiplicative observation noise applied (validation jitter). It is
// clamped to [0, 1].
func (c *Curve) ObservedAccuracy(i int) float64 {
	a := c.Accuracy(i)
	if c.Noise > 0 && c.rng != nil {
		a *= 1 + float64(c.Noise*c.rng.NormFloat64())
	}
	return math.Max(0, math.Min(1, a))
}

// TemporalPriority returns the temporal ML-feature factor of Eq. 2,
//
//	(1/I) · δl_{I−1} / Σ_{j<I} δl_j,
//
// for a job currently in its I-th iteration. For I = 1 (no completed
// iterations) it returns 1, the maximum: the first iteration always has
// the highest temporal importance.
func (c *Curve) TemporalPriority(iter int) float64 {
	if iter <= 1 {
		return 1
	}
	cum := c.CumLossReduction(iter - 1)
	if cum <= 0 {
		return 1.0 / float64(iter)
	}
	return (1.0 / float64(iter)) * (c.LossReduction(iter-1) / cum)
}
