package learncurve

import "math/rand"

// Family identifies the ML algorithm families used in the paper's
// experiments (§4.1): AlexNet, ResNet, MLP, LSTM and SVM.
type Family int

const (
	AlexNet Family = iota
	ResNet
	MLP
	LSTM
	SVM

	NumFamilies
)

var familyNames = [NumFamilies]string{"alexnet", "resnet", "mlp", "lstm", "svm"}

// String returns the family's lower-case name.
func (f Family) String() string {
	if f < 0 || f >= NumFamilies {
		return "unknown"
	}
	return familyNames[f]
}

// ParseFamily maps a name back to a Family; unknown names return (0, false).
func ParseFamily(s string) (Family, bool) {
	for i, n := range familyNames {
		if n == s {
			return Family(i), true
		}
	}
	return 0, false
}

// familySpec holds the calibration ranges per family. Values are chosen so
// the five families differ in convergence speed and attainable accuracy the
// way their real counterparts do (CNNs slow/high-accuracy, SVM fast/lower
// asymptote), which is all the scheduler can observe.
type familySpec struct {
	accMaxLo, accMaxHi float64
	rateLo, rateHi     float64
	decayLo, decayHi   float64
	l0Lo, l0Hi         float64
	// typical iteration budget I_max
	iterLo, iterHi int
	// per-task compute seconds per iteration at unit GPU
	iterSecLo, iterSecHi float64
	// whether model parallelism applies (SVM is data-parallel only, §4.1)
	ModelParallel bool
	// Sequential DAG (MLP/AlexNet are partitioned sequentially, §4.1);
	// otherwise layered (ResNet/LSTM partition each layer).
	Sequential bool
}

// Rates are calibrated so rate × typical iteration budget ≈ 3: accuracy
// reaches ~95% of its asymptote right at I_max, so a job truncated at its
// deadline mid-training loses real accuracy — the dynamic Figs. 4e/4f
// measure.
var familySpecs = [NumFamilies]familySpec{
	AlexNet: {0.82, 0.93, 0.0035, 0.0075, 0.9, 1.3, 2.0, 3.0, 300, 900, 6, 16, true, true},
	ResNet:  {0.88, 0.97, 0.0025, 0.0055, 0.8, 1.2, 2.2, 3.2, 400, 1200, 10, 24, true, false},
	MLP:     {0.75, 0.90, 0.0060, 0.0150, 1.0, 1.6, 1.5, 2.5, 150, 500, 2, 6, true, true},
	LSTM:    {0.80, 0.94, 0.0040, 0.0090, 0.9, 1.4, 2.5, 4.0, 250, 800, 4, 12, true, false},
	SVM:     {0.70, 0.88, 0.0100, 0.0250, 1.2, 2.0, 1.2, 2.0, 80, 300, 1, 4, false, true},
}

// ModelParallel reports whether the family supports model parallelism.
// SVM does not ("it is hard to partition its network model", §4.1).
func (f Family) ModelParallel() bool { return familySpecs[f].ModelParallel }

// SequentialDAG reports whether the family's model-parallel partitions form
// a sequential chain (MLP, AlexNet) rather than a layered graph (ResNet,
// LSTM), per §4.1.
func (f Family) SequentialDAG() bool { return familySpecs[f].Sequential }

// Sample draws a calibrated curve plus an iteration budget and a
// per-iteration compute cost for a job of this family, using rng for all
// randomness (deterministic under a fixed seed).
func (f Family) Sample(rng *rand.Rand) (Curve, int, float64) {
	sp := familySpecs[f]
	uni := func(lo, hi float64) float64 { return lo + float64(rng.Float64()*(hi-lo)) }
	c := Curve{
		L0:     uni(sp.l0Lo, sp.l0Hi),
		Floor:  uni(0.05, 0.3),
		Decay:  uni(sp.decayLo, sp.decayHi),
		AccMax: uni(sp.accMaxLo, sp.accMaxHi),
		Rate:   uni(sp.rateLo, sp.rateHi),
		Noise:  0.01,
	}
	iters := sp.iterLo + rng.Intn(sp.iterHi-sp.iterLo+1)
	iterSec := uni(sp.iterSecLo, sp.iterSecHi)
	return c, iters, iterSec
}
