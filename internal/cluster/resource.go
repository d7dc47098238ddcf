// Package cluster models a multi-resource ML cluster: servers holding GPUs,
// CPU, memory and network bandwidth, per-task placements, and the
// utilisation vectors and overload definitions of MLFS (§3.3.2, §3.5 of the
// paper).
//
// All quantities are unitless "capacity units" except where noted; the
// simulator decides the interpretation (e.g. bandwidth in MB/s).
//
// Determinism and caching contract: server load state moves only through
// epoch-bumping mutators (Place, Move, Remove, UpdateDemand, FailServer,
// RepairServer), so the simulator's epoch-keyed iteration-cost caches
// can trust a server's epoch for invalidation — the epochguard analyzer
// enforces this mechanically. Fault injection (faults.go) draws from
// per-server seeded streams only. The package is enrolled in the lint
// DeterministicPaths registry (mapiter, noclock, sharedcapture), plus
// the repo-wide epochguard, floatcmp and pkgdoc checks.
package cluster

import (
	"fmt"
	"math"
)

// Resource enumerates the resource types tracked per server. The paper
// considers GPU, CPU, memory and network bandwidth (§4.1) and notes that
// more types can be added easily; adding a constant before NumResources is
// all that is required here.
type Resource int

const (
	// ResGPU is aggregate GPU compute on a server (sum over devices).
	ResGPU Resource = iota
	// ResCPU is CPU cores.
	ResCPU
	// ResMemory is RAM.
	ResMemory
	// ResBandwidth is network bandwidth.
	ResBandwidth

	// NumResources is the number of tracked resource types.
	NumResources
)

var resourceNames = [NumResources]string{"gpu", "cpu", "memory", "bandwidth"}

// String returns the lower-case name of the resource type.
func (r Resource) String() string {
	if r < 0 || r >= NumResources {
		return fmt.Sprintf("resource(%d)", int(r))
	}
	return resourceNames[r]
}

// Vec is a fixed-size vector over the resource types. It is used for
// capacities, demands and utilisations (the U_s^t and U_k^t vectors of
// §3.3.2). Vec is a value type; arithmetic methods return new values.
type Vec [NumResources]float64

// Add returns v + w element-wise.
func (v Vec) Add(w Vec) Vec {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub returns v - w element-wise.
func (v Vec) Sub(w Vec) Vec {
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Div returns the element-wise quotient v/w. Elements where w is zero
// yield zero, so utilisation of an absent resource reads as 0 rather
// than NaN.
func (v Vec) Div(w Vec) Vec {
	var out Vec
	for i := range v {
		if w[i] != 0 {
			out[i] = v[i] / w[i]
		}
	}
	return out
}

// Norm returns the Euclidean norm ||v||, the overload degree O_s of §3.5
// when v is a utilisation vector.
func (v Vec) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Distance returns the Euclidean distance ||v - w|| used by the
// RIAL-style ideal-virtual-server and ideal-virtual-task selections
// (§3.3.2, §3.3.3).
func (v Vec) Distance(w Vec) float64 {
	return math.Sqrt(v.DistanceSq(w))
}

// DistanceSq returns ||v - w||², the exact radicand of Distance: a
// caller comparing candidates can rank by it and take the square root
// only for one that can win, with the same bits Distance would give.
// Each product is rounded before the add (no fused multiply-add on any
// architecture).
func (v Vec) DistanceSq(w Vec) float64 {
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += float64(d * d)
	}
	return s
}

// AnyAbove reports whether any element of v exceeds threshold t.
func (v Vec) AnyAbove(t float64) bool {
	for _, x := range v {
		if x > t {
			return true
		}
	}
	return false
}

// Clamp returns v with every element clamped to [0, +inf).
func (v Vec) Clamp() Vec {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		}
	}
	return v
}

// String renders the vector with resource labels, e.g.
// "{gpu:1.0 cpu:4.0 memory:16.0 bandwidth:50.0}".
func (v Vec) String() string {
	s := "{"
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%.3g", Resource(i), x)
	}
	return s + "}"
}
