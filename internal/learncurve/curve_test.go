package learncurve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testCurve() *Curve {
	return &Curve{L0: 2.5, Floor: 0.1, Decay: 1.1, AccMax: 0.92, Rate: 0.02, Noise: 0.01}
}

func TestValidate(t *testing.T) {
	if err := testCurve().Validate(); err != nil {
		t.Fatalf("valid curve rejected: %v", err)
	}
	bad := []Curve{
		{L0: 0.1, Floor: 0.2, Decay: 1, AccMax: 0.9, Rate: 0.1}, // L0 <= Floor
		{L0: 2, Floor: 0.1, Decay: 0, AccMax: 0.9, Rate: 0.1},   // Decay
		{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0, Rate: 0.1},     // AccMax low
		{L0: 2, Floor: 0.1, Decay: 1, AccMax: 1.5, Rate: 0.1},   // AccMax high
		{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0},     // Rate
		{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.1, Noise: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad curve %d accepted", i)
		}
	}
}

func TestLossMonotoneDecreasing(t *testing.T) {
	c := testCurve()
	prev := c.Loss(0)
	if prev != c.L0 {
		t.Fatalf("Loss(0) = %v, want L0", prev)
	}
	for i := 1; i <= 500; i++ {
		l := c.Loss(i)
		if l >= prev {
			t.Fatalf("loss not strictly decreasing at i=%d: %v >= %v", i, l, prev)
		}
		if l < c.Floor {
			t.Fatalf("loss below floor at i=%d: %v", i, l)
		}
		prev = l
	}
}

func TestLossReductionDiminishing(t *testing.T) {
	c := testCurve()
	prev := c.LossReduction(1)
	for i := 2; i <= 300; i++ {
		d := c.LossReduction(i)
		if d <= 0 {
			t.Fatalf("δl_%d = %v, want > 0", i, d)
		}
		if d >= prev {
			t.Fatalf("loss reduction not diminishing at i=%d: %v >= %v", i, d, prev)
		}
		prev = d
	}
	if c.LossReduction(0) != 0 {
		t.Fatal("δl_0 must be 0")
	}
}

func TestCumLossReductionTelescopes(t *testing.T) {
	c := testCurve()
	var sum float64
	for i := 1; i <= 100; i++ {
		sum += c.LossReduction(i)
		if math.Abs(c.CumLossReduction(i)-sum) > 1e-9 {
			t.Fatalf("cum reduction mismatch at i=%d", i)
		}
	}
}

func TestAccuracyMonotoneBounded(t *testing.T) {
	c := testCurve()
	if c.Accuracy(0) != 0 {
		t.Fatal("Accuracy(0) must be 0")
	}
	prev := 0.0
	for i := 1; i <= 1000; i++ {
		a := c.Accuracy(i)
		if a <= prev || a >= c.AccMax {
			t.Fatalf("accuracy must be strictly increasing below AccMax, i=%d a=%v prev=%v", i, a, prev)
		}
		prev = a
	}
	if c.Accuracy(100000) > c.AccMax {
		t.Fatal("accuracy exceeded AccMax")
	}
}

func TestObservedAccuracyNoise(t *testing.T) {
	c := testCurve()
	// No seed -> noiseless.
	if c.ObservedAccuracy(50) != c.Accuracy(50) {
		t.Fatal("unseeded curve must be noiseless")
	}
	c.Seed(42)
	var differs bool
	for i := 1; i <= 20; i++ {
		o := c.ObservedAccuracy(i)
		if o < 0 || o > 1 {
			t.Fatalf("observed accuracy out of [0,1]: %v", o)
		}
		if o != c.Accuracy(i) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeded noisy curve never differed from truth")
	}
	// Determinism under same seed.
	c2 := testCurve()
	c2.Seed(42)
	c3 := testCurve()
	c3.Seed(42)
	for i := 1; i <= 10; i++ {
		if c2.ObservedAccuracy(i) != c3.ObservedAccuracy(i) {
			t.Fatal("same seed must reproduce observations")
		}
	}
}

func TestTemporalPriority(t *testing.T) {
	c := testCurve()
	if c.TemporalPriority(1) != 1 {
		t.Fatal("first iteration must have maximal temporal priority 1")
	}
	prev := c.TemporalPriority(2)
	for i := 3; i <= 200; i++ {
		p := c.TemporalPriority(i)
		if p <= 0 {
			t.Fatalf("temporal priority must be positive, i=%d p=%v", i, p)
		}
		if p >= prev {
			t.Fatalf("temporal priority must decrease with iteration, i=%d", i)
		}
		prev = p
	}
}

// Property: for any valid curve, loss is monotone and accuracy bounded.
func TestCurveProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for f := Family(0); f < NumFamilies; f++ {
			c, iters, iterSec := f.Sample(rng)
			if err := c.Validate(); err != nil {
				return false
			}
			if iters <= 0 || iterSec <= 0 {
				return false
			}
			for i := 1; i <= iters; i += 7 {
				if c.Loss(i) >= c.Loss(i-1) {
					return false
				}
				if a := c.Accuracy(i); a < 0 || a > c.AccMax {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFamilyNames(t *testing.T) {
	for f := Family(0); f < NumFamilies; f++ {
		got, ok := ParseFamily(f.String())
		if !ok || got != f {
			t.Fatalf("round trip failed for %v", f)
		}
	}
	if _, ok := ParseFamily("nope"); ok {
		t.Fatal("unknown family must not parse")
	}
	if Family(99).String() != "unknown" {
		t.Fatal("out-of-range family name")
	}
}

func TestFamilyTraits(t *testing.T) {
	if SVM.ModelParallel() {
		t.Fatal("SVM is data-parallel only (§4.1)")
	}
	if !ResNet.ModelParallel() || !AlexNet.ModelParallel() {
		t.Fatal("ResNet/AlexNet support model parallelism")
	}
	if !MLP.SequentialDAG() || !AlexNet.SequentialDAG() {
		t.Fatal("MLP/AlexNet are partitioned sequentially (§4.1)")
	}
	if ResNet.SequentialDAG() || LSTM.SequentialDAG() {
		t.Fatal("ResNet/LSTM are layered, not sequential (§4.1)")
	}
}
