package learncurve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refPredictor is the predictor before the certified incremental fit:
// refFit is the historical Fit body verbatim (memo, weight and basis
// caches, every grid rate evaluated in full). It is the oracle Fit must
// match bit for bit, and the baseline of BenchmarkPredictorFitSeries.
type refPredictor struct {
	iters   []int
	accs    []float64
	Recency float64

	fitN    int
	fitRec  float64
	fitAmax float64
	fitRate float64
	fitConf float64
	fitOK   bool
	pows    []float64
	expf    [][]float64
}

func (p *refPredictor) Observe(iter int, acc float64) {
	if len(p.iters) > 0 && iter <= p.iters[len(p.iters)-1] {
		return
	}
	p.iters = append(p.iters, iter)
	p.accs = append(p.accs, acc)
}

func (p *refPredictor) SetObservations(iters []int, accs []float64) {
	p.iters = append(p.iters[:0], iters...)
	p.accs = append(p.accs[:0], accs...)
	p.fitN = 0
	p.pows = nil
	p.expf = nil
}

func (p *refPredictor) refFit() (amax, rate, confidence float64, ok bool) {
	n := len(p.iters)
	if n < 3 {
		return 0, 0, 0, false
	}
	rec := p.Recency
	if rec <= 0 || rec > 1 {
		rec = 0.97
	}
	if p.fitN == n && p.fitRec == rec {
		return p.fitAmax, p.fitRate, p.fitConf, p.fitOK
	}
	if len(p.pows) > 0 && p.fitRec != rec {
		p.pows = p.pows[:0] // Recency changed: the cached powers are stale
	}
	for k := len(p.pows); k < n; k++ {
		p.pows = append(p.pows, math.Pow(rec, float64(k)))
	}
	// w_j = rec^(n-1-j), read out of the shared power table.
	w := p.pows[:n]
	// Extend the basis cache to cover the new observations.
	if p.expf == nil {
		p.expf = make([][]float64, len(fitRates))
	}
	for ri, r := range fitRates {
		col := p.expf[ri]
		for j := len(col); j < n; j++ {
			col = append(col, 1-math.Exp(-r*float64(p.iters[j])))
		}
		p.expf[ri] = col
	}
	bestSSE := math.Inf(1)
	for ri, r := range fitRates {
		F := p.expf[ri][:n]
		var num, den float64
		for j := range p.iters {
			num += w[n-1-j] * p.accs[j] * F[j]
			den += w[n-1-j] * F[j] * F[j]
		}
		if den == 0 {
			continue
		}
		a := num / den
		if a <= 0 || a > 1.2 {
			continue
		}
		var sse, wsum float64
		for j := range p.iters {
			f := a * F[j]
			d := p.accs[j] - f
			sse += w[n-1-j] * d * d
			wsum += w[n-1-j]
		}
		sse /= wsum
		if sse < bestSSE {
			bestSSE, amax, rate = sse, a, r
		}
	}
	if math.IsInf(bestSSE, 1) {
		p.fitN, p.fitRec = n, rec
		p.fitAmax, p.fitRate, p.fitConf, p.fitOK = 0, 0, 0, false
		return 0, 0, 0, false
	}
	// Confidence shrinks with the (weighted RMS) residual relative to the
	// fitted asymptote, and grows with sample count.
	rms := math.Sqrt(bestSSE)
	confidence = (1 - math.Min(1, rms/math.Max(amax, 1e-9))) * (1 - 1/float64(n))
	if confidence < 0 {
		confidence = 0
	}
	p.fitN, p.fitRec = n, rec
	p.fitAmax, p.fitRate, p.fitConf, p.fitOK = amax, rate, confidence, true
	return amax, rate, confidence, true
}

// twinPair is a Predictor and the reference fed the same observations.
type twinPair struct {
	p Predictor
	r refPredictor
}

func (tp *twinPair) observe(iter int, acc float64) {
	tp.p.Observe(iter, acc)
	tp.r.Observe(iter, acc)
}

func (tp *twinPair) setRecency(rec float64) {
	tp.p.Recency, tp.r.Recency = rec, rec
}

// restore replays a snapshot restore of the current series into both.
func (tp *twinPair) restore() {
	iters, accs := tp.p.Observations()
	iters, accs = append([]int(nil), iters...), append([]float64(nil), accs...)
	tp.p.SetObservations(iters, accs)
	tp.r.SetObservations(iters, accs)
}

// check fits both and fails unless every returned value has the same
// bits. It reports whether the certified candidate path served the fit.
func (tp *twinPair) check(t *testing.T, what string) (certified bool) {
	t.Helper()
	a, r, c, ok := tp.p.Fit()
	ra, rr, rc, rok := tp.r.refFit()
	if math.Float64bits(a) != math.Float64bits(ra) || math.Float64bits(r) != math.Float64bits(rr) ||
		math.Float64bits(c) != math.Float64bits(rc) || ok != rok {
		t.Fatalf("%s, n=%d: Fit = (%v %v %v %v), reference = (%v %v %v %v)",
			what, tp.p.NumObservations(), a, r, c, ok, ra, rr, rc, rok)
	}
	return tp.p.fit != nil && tp.p.fit.certified
}

// cleanSeries is a noisy saturating curve a(i) = amax·(1 − e^(−rate·i))
// observed at increasing iterations, clamped to [0, 1] like
// Curve.ObservedAccuracy.
func cleanSeries(rng *rand.Rand, n int, amax, rate, noise float64) (iters []int, accs []float64) {
	stride := 1 + rng.Intn(4)
	for k, it := 0, 1; k < n; k++ {
		a := amax * (1 - math.Exp(-rate*float64(it))) * (1 + noise*rng.NormFloat64())
		iters, accs = append(iters, it), append(accs, math.Max(0, math.Min(1, a)))
		it += 1 + rng.Intn(stride)
	}
	return iters, accs
}

// Fit must equal the reference bit for bit on realistic series, and the
// certified path — not the all-rates fallback — must serve every fit of
// them: an implementation that always falls back fails here.
func TestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	lo, hi := math.Log(fitRates[0]), math.Log(fitRates[len(fitRates)-1])
	recencies := []float64{0, 0.9, 0.97, 0.99, 1}
	fits, fallbacks := 0, 0
	for s := 0; s < 400; s++ {
		// Every fifth series refits after each observation, the way MLF-C
		// does; the rest fit at random points and at the end.
		every := s%5 == 0
		n := 3 + rng.Intn(1498)
		switch {
		case every:
			n = 3 + rng.Intn(298)
		case s%10 == 1:
			n = 1500
		}
		rate := math.Exp(lo + (hi-lo)*rng.Float64())
		noise := 0.03 * rng.Float64()
		if s%8 == 0 {
			noise = 0
		}
		iters, accs := cleanSeries(rng, n, 0.3+0.7*rng.Float64(), rate, noise)
		var tp twinPair
		tp.setRecency(recencies[rng.Intn(len(recencies))])
		for k := range iters {
			tp.observe(iters[k], accs[k])
			if k < 2 || !(every || k == n-1 || rng.Intn(40) == 0) {
				continue
			}
			fits++
			if !tp.check(t, "series") {
				fallbacks++
			}
		}
	}
	if fallbacks > 0 {
		t.Fatalf("%d of %d fits of clean series fell back to evaluating every rate", fallbacks, fits)
	}
}

// A noiseless series acc = c·F for one grid rate fits that rate exactly,
// with amax = c. For c within a few ulps of the 1.2 validity bound the
// running sums and the reference's forward sums round to different
// sides of it for some c; the certified path must leave that rate to
// the exact evaluation rather than decide it from the sums.
func TestFitMatchesReferenceAtAmaxBound(t *testing.T) {
	r := fitRates[20]
	for k := -64; k <= 64; k++ {
		c := 1.2 * (1 + float64(k)*0x1p-52)
		var tp twinPair
		for i := 1; i <= 150; i++ { // r·i ≤ 1.3, so every accuracy is below 1
			tp.observe(i, c*(1-math.Exp(-r*float64(i))))
			if i >= 3 {
				tp.check(t, fmt.Sprintf("amax 1.2·(1%+d·2^-52)", k))
			}
		}
	}
}

// fitScript ops, three bytes each: op, x, y. See runFitScript.
const (
	opObserve  = 0 // (also 1-3) iteration += x, accuracy y/255
	opSpecial  = 4 // iteration += x, accuracy specialAccs[y%8]
	opIter     = 5 // iteration = int8(x): zero and negative starts
	opRecency  = 6 // Recency = scriptRecencies[x%8]
	opRestore  = 7 // snapshot restore of the current series
	scriptOps  = 8
	maxFitOps  = 2000
	scriptSeed = 23
)

var (
	specialAccs     = []float64{0, 1, -0.25, math.NaN(), math.Inf(1), 1.5, 0x1p-1074, 1e-200}
	scriptRecencies = []float64{0, 0.5, 0.9, 0.97, 1, 1.5, math.NaN(), 1e-300}
)

// runFitScript drives a Predictor and the reference in lockstep through
// a byte script and fails on the first fit whose bits differ.
func runFitScript(t *testing.T, script []byte) {
	var tp twinPair
	iter := 0
	for ops := 0; len(script) >= 3 && ops < maxFitOps; ops++ {
		op, x, y := script[0]%scriptOps, script[1], script[2]
		script = script[3:]
		switch op {
		case opSpecial:
			iter += int(x)
			tp.observe(iter, specialAccs[y%8])
		case opIter:
			iter = int(int8(x))
			tp.observe(iter, float64(y)/255)
		case opRecency:
			tp.setRecency(scriptRecencies[x%8])
		case opRestore:
			tp.restore()
		default:
			iter += int(x)
			tp.observe(iter, float64(y)/255)
		}
		tp.check(t, "script")
	}
}

// scriptBuilder assembles fitScript seeds.
type scriptBuilder []byte

func (b *scriptBuilder) op(op, x, y byte) { *b = append(*b, op, x, y) }

// curve appends n observations of a noisy saturating curve.
func (b *scriptBuilder) curve(rng *rand.Rand, n int, rate float64) {
	for k := 0; k < n; k++ {
		acc := 0.85 * (1 - math.Exp(-rate*float64(len(*b)/3))) * (1 + 0.02*rng.NormFloat64())
		b.op(opObserve, byte(1+rng.Intn(3)), byte(math.Max(0, math.Min(255, 255*acc))))
	}
}

func fitScriptSeeds() [][]byte {
	rng := rand.New(rand.NewSource(scriptSeed))
	var seeds [][]byte
	add := func(build func(b *scriptBuilder)) {
		var b scriptBuilder
		build(&b)
		seeds = append(seeds, b)
	}
	add(func(b *scriptBuilder) { // first observation at iteration 0
		b.op(opIter, 0, 0)
		b.curve(rng, 120, 0.03)
	})
	add(func(b *scriptBuilder) { // accuracies exactly 0 and 1
		b.op(opObserve, 1, 0)
		b.op(opObserve, 1, 0)
		b.curve(rng, 40, 0.1)
		for k := 0; k < 30; k++ {
			b.op(opSpecial, 1, byte(k%2))
		}
		b.curve(rng, 20, 0.1)
	})
	add(func(b *scriptBuilder) { // a negative accuracy mid-series
		b.curve(rng, 60, 0.05)
		b.op(opSpecial, 1, 2)
		b.curve(rng, 60, 0.05)
	})
	add(func(b *scriptBuilder) { // NaN, +Inf, above 1 and subnormal accuracies
		b.curve(rng, 50, 0.02)
		for y := byte(3); y < 8; y++ {
			b.op(opSpecial, 1, y)
			b.curve(rng, 10, 0.02)
		}
	})
	add(func(b *scriptBuilder) { // Recency changes mid-series
		b.curve(rng, 80, 0.04)
		for _, x := range []byte{1, 2, 4, 0, 5, 6, 3, 7, 3} {
			b.op(opRecency, x, 0)
			b.curve(rng, 40, 0.04)
		}
	})
	add(func(b *scriptBuilder) { // snapshot restores mid-series
		b.curve(rng, 70, 0.06)
		b.op(opRestore, 0, 0)
		b.curve(rng, 70, 0.06)
		b.op(opRecency, 2, 0)
		b.op(opRestore, 0, 0)
		b.curve(rng, 30, 0.06)
	})
	add(func(b *scriptBuilder) { // negative iterations, then repeated ones
		b.op(opIter, 0xF0, 20) // iteration -16
		b.op(opObserve, 3, 30)
		b.op(opObserve, 0, 90) // repeated iteration: ignored by both
		b.curve(rng, 50, 0.08)
	})
	return seeds
}

// FuzzFitMatchesReference checks Fit against the reference on arbitrary
// observation scripts: out-of-domain accuracies, odd iterations, Recency
// changes and restores at any point. The seed corpus runs under go test.
func FuzzFitMatchesReference(f *testing.F) {
	for _, s := range fitScriptSeeds() {
		f.Add(s)
	}
	f.Fuzz(runFitScript)
}

// BenchmarkPredictorFitSeries grows a noisy 1200-observation series and
// fits after every observation, the way MLF-C refits a running job every
// round; "reference" runs the same loop on the historical fit.
func BenchmarkPredictorFitSeries(b *testing.B) {
	iters, accs := cleanSeries(rand.New(rand.NewSource(5)), 1200, 0.85, 0.004, 0.02)
	b.Run("certified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var p Predictor
			for k := range iters {
				p.Observe(iters[k], accs[k])
				p.Fit()
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var p refPredictor
			for k := range iters {
				p.Observe(iters[k], accs[k])
				p.refFit()
			}
		}
	})
}
