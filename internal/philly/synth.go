package philly

import (
	"math"
	"math/rand"

	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// This file is the synthetic Philly-scale workload source: a seeded,
// streaming trace.Source whose record i is a pure function of
// (seed, i) — no trace file to ship, no materialised record slice, no
// sequential dependency between records. That last property is what
// distinguishes it from trace.Generate (one shared rand.Rand, so record
// i requires drawing records 0..i-1 first): a streaming simulator can
// re-stream any prefix in O(prefix) after a snapshot restore, and peak
// RSS stays flat at 100k+ submissions because records are produced one
// admission at a time.
//
// Arrivals follow the same diurnal intensity Generate uses,
// λ(t) = 1 + 0.5·sin(2πt/day), but instead of rejection sampling the
// process is generated by inverting the cumulative intensity
// Λ(t) = t + (day/4π)(1 − cos(2πt/day)): arrival i sits at
// Λ⁻¹((i + uᵢ)/n · Λ(D)) with uᵢ ∈ [0,1) a per-record hash jitter.
// (i + uᵢ)/n is strictly increasing in i and Λ is strictly increasing
// in t, so arrivals are sorted by construction — the simulator's
// streaming-admission contract — while inter-arrival spacing stays
// irregular and the arrival density tracks the diurnal wave.

// SynthConfig parameterises a synthetic Philly-scale source.
type SynthConfig struct {
	// Jobs is the total submission count (the real trace has 117,325).
	Jobs int
	// Seed makes the whole stream reproducible; equal seeds yield equal
	// streams. Default 1.
	Seed int64
	// DurationSec is the arrival window (default: the Philly trace's 18
	// weeks).
	DurationSec float64
	// Gen overrides the workload-field distributions (urgency levels, PS
	// fraction, stop-option weights). Zero-value fields use the §4.1
	// defaults; Jobs/Seed/DurationSec inside it are ignored.
	Gen trace.GenConfig
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DurationSec <= 0 {
		c.DurationSec = 18 * 7 * 24 * 3600 // §4.1: 18 weeks
	}
	return c
}

// Synthetic streams a synthetic Philly-scale workload. It implements
// trace.Source; create one with NewSynthetic.
type Synthetic struct {
	cfg  SynthConfig
	mass float64 // Λ(DurationSec), the total cumulative intensity
	next int
}

// NewSynthetic builds the stream for cfg.
func NewSynthetic(cfg SynthConfig) *Synthetic {
	cfg = cfg.withDefaults()
	return &Synthetic{cfg: cfg, mass: cumIntensity(cfg.DurationSec)}
}

// Next implements trace.Source.
func (s *Synthetic) Next() (trace.Record, bool) {
	if s.next >= s.cfg.Jobs {
		return trace.Record{}, false
	}
	i := s.next
	s.next++
	return s.Record(i), true
}

// Reset implements trace.Source.
func (s *Synthetic) Reset() { s.next = 0 }

// Len implements trace.Source.
func (s *Synthetic) Len() int { return s.cfg.Jobs }

// Duration implements trace.Source.
func (s *Synthetic) Duration() float64 { return s.cfg.DurationSec }

// Record computes record i directly — the random-access form of the
// stream (Next is Record in sequence). It is a pure function of
// (cfg, i).
func (s *Synthetic) Record(i int) trace.Record {
	h := mix64(uint64(s.cfg.Seed), uint64(i))
	jitter := float64(h>>11) / (1 << 53) // uniform [0,1), 53 bits
	target := (float64(i) + jitter) / float64(s.cfg.Jobs) * s.mass
	arrival := invCumIntensity(target)
	rng := rand.New(snapshot.NewSource(int64(mix64(h, 0x9e3779b97f4a7c15))))
	return trace.SampleRecord(rng, s.cfg.Gen, int64(i+1), arrival)
}

const daySec = 24 * 3600.0

// cumIntensity is Λ(t) = ∫₀ᵗ (1 + 0.5·sin(2πτ/day)) dτ.
func cumIntensity(t float64) float64 {
	w := 2 * math.Pi / daySec
	return t + 0.5/w*(1-math.Cos(w*t))
}

// invCumIntensity solves Λ(t) = target by Newton iteration. Λ' ranges
// over [0.5, 1.5], so convergence from t₀ = target is fast; the
// iteration is a fixed sequence of float64 operations — deterministic
// across platforms with IEEE-754 doubles.
func invCumIntensity(target float64) float64 {
	w := 2 * math.Pi / daySec
	t := target
	for iter := 0; iter < 64; iter++ {
		f := t + 0.5/w*(1-math.Cos(w*t)) - target
		if math.Abs(f) < 1e-9 {
			break
		}
		t -= f / (1 + 0.5*math.Sin(w*t))
	}
	if t < 0 {
		t = 0
	}
	return t
}

// mix64 is a splitmix64-style hash combining two words; it decorrelates
// per-record seeds so neighbouring records draw independent workloads.
func mix64(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
