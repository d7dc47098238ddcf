// Package noclock exercises the noclock analyzer: wall-clock reads and
// global math/rand draws in a deterministic package, math/rand's own
// source constructor, the injected *rand.Rand and constructor exemptions
// and the suppression directive.
//
//mlfs:deterministic
package noclock

import (
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want "time.Now in deterministic package"
	return time.Since(start) // want "time.Since in deterministic package"
}

func wallDeadline(t time.Time) time.Duration {
	return time.Until(t) // want "time.Until in deterministic package"
}

func globalRand() float64 {
	if rand.Intn(2) == 0 { // want "global math/rand.Intn in deterministic package"
		return 0
	}
	return rand.Float64() // want "global math/rand.Float64 in deterministic package"
}

func injectedRand(r *rand.Rand) float64 {
	return r.Float64() // methods on an injected source: no finding
}

func constructors(src rand.Source) *rand.Rand {
	return rand.New(src) // wrapping an injected source: no finding
}

func mathRandSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want "rand.NewSource in deterministic package"
}

func timeArithmeticIsFine(d time.Duration) float64 {
	return d.Seconds() // duration math has no clock read: no finding
}

func suppressedTelemetry() time.Time {
	return time.Now() //mlfs:allow noclock telemetry probe outside the simulation path
}
