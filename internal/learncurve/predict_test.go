package learncurve

import (
	"math"
	"math/rand"
	"testing"
)

func observeCurve(p *Predictor, c *Curve, upto int) {
	for i := 1; i <= upto; i++ {
		p.Observe(i, c.ObservedAccuracy(i))
	}
}

func TestPredictorTooFewObservations(t *testing.T) {
	var p Predictor
	if _, _, _, ok := p.Fit(); ok {
		t.Fatal("Fit with 0 observations must fail")
	}
	p.Observe(1, 0.1)
	p.Observe(2, 0.15)
	if _, _, ok := p.Predict(100); ok {
		t.Fatal("Predict with 2 observations must fail")
	}
}

func TestPredictorIgnoresOutOfOrder(t *testing.T) {
	var p Predictor
	p.Observe(5, 0.3)
	p.Observe(3, 0.2) // ignored
	p.Observe(5, 0.4) // ignored (same iter)
	p.Observe(6, 0.35)
	if p.NumObservations() != 2 {
		t.Fatalf("NumObservations = %d, want 2", p.NumObservations())
	}
}

func TestPredictorRecoversNoiselessCurve(t *testing.T) {
	c := &Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.03}
	var p Predictor
	observeCurve(&p, c, 60)
	amax, rate, conf, ok := p.Fit()
	if !ok {
		t.Fatal("Fit failed")
	}
	if math.Abs(amax-c.AccMax) > 0.05 {
		t.Fatalf("amax = %v, want ~%v", amax, c.AccMax)
	}
	if rate < c.Rate/2 || rate > c.Rate*2 {
		t.Fatalf("rate = %v, want ~%v", rate, c.Rate)
	}
	if conf < 0.9 {
		t.Fatalf("confidence = %v, want high for noiseless fit", conf)
	}
}

// The paper's cited method achieves ~90% prediction accuracy (§3.1); on
// noisy synthetic curves our extrapolation from the first third of
// training should predict the final accuracy within ~10% relative error
// for the vast majority of curves.
func TestPredictorAccuracyOnNoisyCurves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	total, good := 0, 0
	for trial := 0; trial < 100; trial++ {
		f := Family(rng.Intn(int(NumFamilies)))
		c, iters, _ := f.Sample(rng)
		c.Seed(rng.Int63())
		var p Predictor
		observeCurve(&p, &c, iters/3+3)
		pred, _, ok := p.Predict(iters)
		if !ok {
			t.Fatal("fit failed on sampled curve")
		}
		truth := c.Accuracy(iters)
		total++
		if math.Abs(pred-truth)/truth < 0.10 {
			good++
		}
	}
	if ratio := float64(good) / float64(total); ratio < 0.85 {
		t.Fatalf("prediction accuracy %.2f, want >= 0.85 (paper: ~90%%)", ratio)
	}
}

func TestPredictBounded(t *testing.T) {
	c := &Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.95, Rate: 0.05}
	var p Predictor
	observeCurve(&p, c, 30)
	a, _, ok := p.Predict(1 << 20)
	if !ok || a < 0 || a > 1 {
		t.Fatalf("Predict out of bounds: %v ok=%v", a, ok)
	}
}

func TestStopOptionDowngrade(t *testing.T) {
	if RunToMaxIterations.Downgrade() != OptStop {
		t.Fatal("i must downgrade to ii")
	}
	if OptStop.Downgrade() != StopAtTarget {
		t.Fatal("ii must downgrade to iii")
	}
	if StopAtTarget.Downgrade() != StopAtTarget {
		t.Fatal("iii downgrades to itself")
	}
	for _, o := range []StopOption{RunToMaxIterations, OptStop, StopAtTarget} {
		if o.String() == "unknown" {
			t.Fatal("valid option stringifies as unknown")
		}
	}
	if StopOption(9).String() != "unknown" {
		t.Fatal("invalid option must stringify as unknown")
	}
}

func TestShouldStopRunToMax(t *testing.T) {
	c := &Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.05}
	var p Predictor
	observeCurve(&p, c, 50)
	d := StopDecision{Option: RunToMaxIterations, MaxIterations: 100}
	if d.ShouldStop(&p, 50, c.Accuracy(50)) {
		t.Fatal("option i must not stop before I_max")
	}
	if !d.ShouldStop(&p, 100, c.Accuracy(100)) {
		t.Fatal("every option stops at I_max")
	}
}

func TestShouldStopAtTarget(t *testing.T) {
	c := &Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.05}
	var p Predictor
	observeCurve(&p, c, 40)
	d := StopDecision{Option: StopAtTarget, Target: 0.5, MaxIterations: 1000}
	if d.ShouldStop(&p, 10, 0.3) {
		t.Fatal("must not stop below target")
	}
	if !d.ShouldStop(&p, 40, 0.51) {
		t.Fatal("must stop once target achieved")
	}
}

func TestShouldStopHopelessJob(t *testing.T) {
	// AccMax = 0.6 can never reach target 0.9: with a confident fit the
	// job must be stopped early under both OptStop and StopAtTarget.
	c := &Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.6, Rate: 0.05}
	var p Predictor
	observeCurve(&p, c, 80)
	for _, opt := range []StopOption{OptStop, StopAtTarget} {
		d := StopDecision{Option: opt, Target: 0.9, MaxIterations: 200}
		if !d.ShouldStop(&p, 80, c.Accuracy(80)) {
			t.Fatalf("option %v must stop a hopeless job", opt)
		}
		// The same job early in training (coverage below a third of the
		// budget) must NOT be written off yet.
		var early Predictor
		observeCurve(&early, c, 30)
		if (StopDecision{Option: opt, Target: 0.9, MaxIterations: 200}).ShouldStop(&early, 30, c.Accuracy(30)) {
			t.Fatalf("option %v stopped a job before coverage gate", opt)
		}
	}
}

func TestShouldStopOptStopNearMax(t *testing.T) {
	c := &Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.05}
	var p Predictor
	observeCurve(&p, c, 200)
	d := StopDecision{Option: OptStop, MaxIterations: 10000}
	// At iteration 200, accuracy is essentially at the asymptote.
	if !d.ShouldStop(&p, 200, c.Accuracy(200)) {
		t.Fatal("OptStop must stop once accuracy is near predicted max")
	}
	// Early on it must keep running.
	var early Predictor
	observeCurve(&early, c, 6)
	if d.ShouldStop(&early, 6, c.Accuracy(6)) {
		t.Fatal("OptStop must not stop far from the asymptote")
	}
}

// OptStop saves iterations versus running to I_max while achieving nearly
// the same accuracy — the mechanism behind MLF-C's JCT wins (§3.5, Fig 9).
func TestOptStopSavesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	saved, trials := 0, 0
	for trial := 0; trial < 30; trial++ {
		c, iters, _ := ResNet.Sample(rng)
		c.Seed(rng.Int63())
		var p Predictor
		d := StopDecision{Option: OptStop, MaxIterations: iters}
		stopAt := iters
		for i := 1; i <= iters; i++ {
			p.Observe(i, c.ObservedAccuracy(i))
			if d.ShouldStop(&p, i, c.Accuracy(i)) {
				stopAt = i
				break
			}
		}
		trials++
		if stopAt < iters {
			saved++
			if acc := c.Accuracy(stopAt); acc < 0.9*c.Accuracy(iters) {
				t.Fatalf("OptStop stopped too early: %.3f vs %.3f", acc, c.Accuracy(iters))
			}
		}
	}
	if saved == 0 {
		t.Fatal("OptStop never saved iterations across 30 ResNet curves")
	}
}

// TestShouldStopVerdictsPinned pins ShouldStop's verdict for every
// option across curves and observation counts on both sides of the
// MinObservations gate (default 12), and checks that a predictor below
// the gate is never fitted: every option decides it without a fit.
func TestShouldStopVerdictsPinned(t *testing.T) {
	curves := []struct {
		name   string
		c      Curve
		target float64
	}{
		{"converging", Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.05}, 0.8},
		{"hopeless", Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.6, Rate: 0.05}, 0.9},
		{"slow", Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.9, Rate: 0.004}, 0.85},
		{"fast", Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.95, Rate: 0.3}, 0.5},
		{"saturated", Curve{L0: 2, Floor: 0.1, Decay: 1, AccMax: 0.95, Rate: 1}, 0.97},
	}
	const maxIter = 240
	counts := []int{3, 5, 11, 12, 13, 40, 79, 80, 120, 200, maxIter}
	// One verdict per count, "1" = stop.
	want := map[StopOption][]string{
		RunToMaxIterations: {"00000000001", "00000000001", "00000000001", "00000000001", "00000000001"},
		OptStop:            {"00000000111", "00000001111", "00000001111", "00000111111", "00011111111"},
		StopAtTarget:       {"00000011111", "00000001111", "00000001111", "11111111111", "00000000001"},
	}
	for _, opt := range []StopOption{RunToMaxIterations, OptStop, StopAtTarget} {
		for ci, cv := range curves {
			got := make([]byte, len(counts))
			for k, n := range counts {
				var p Predictor
				for i := 1; i <= n; i++ {
					p.Observe(i, cv.c.Accuracy(i))
				}
				d := StopDecision{Option: opt, Target: cv.target, MaxIterations: maxIter}
				got[k] = '0'
				if d.ShouldStop(&p, n, cv.c.Accuracy(n)) {
					got[k] = '1'
				}
				if n < 12 && p.fit != nil {
					t.Errorf("%v/%s: ShouldStop fitted a predictor with %d observations", opt, cv.name, n)
				}
			}
			if string(got) != want[opt][ci] {
				t.Errorf("%v/%s: verdicts %s, want %s (counts %v)", opt, cv.name, got, want[opt][ci], counts)
			}
		}
	}
}
