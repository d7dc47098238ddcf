package learncurve

import "math"

// Predictor implements the weighted probabilistic learning-curve model of
// §3.5 (after Domhan et al.): it observes the accuracy after each executed
// iteration and extrapolates the curve to predict accuracy at any future
// iteration, together with a confidence value.
//
// The fit is a recency-weighted least-squares fit of
//
//	a(i) = amax · (1 − e^(−r·i))
//
// over a grid of rates r, with amax in closed form per rate. Inputs are
// the number of iterations executed and the accuracy after each — exactly
// the inputs the paper lists for the model.
//
// MLF-C refits every running job every round, and a running job gains
// observations every tick, so Fit is incremental: it folds each new
// observation into per-rate running sums once, uses them to prove which
// grid rates can still win (usually one or two), and runs the full
// weighted fit only on those. The result is bit-for-bit the fit over
// every rate (see certify); series the proof does not cover take the
// full fit.
type Predictor struct {
	iters []int
	accs  []float64

	// Recency controls the weighting w_j = Recency^(n-1-j): 1 weights all
	// observations equally; values < 1 emphasise recent iterations (the
	// "weighted" part of the paper's model). Default 0.97.
	Recency float64

	// fit is allocated by the first Fit, so the predictors of jobs whose
	// scheduler never fits cost one nil pointer.
	fit *fitState //mlfs:derived fit caches: pure functions of (iters, accs, Recency), rebuilt by the first post-restore Fit
}

// fitState is everything Fit derives from the observation series for
// one recency: the memo, the weight cache and the running sums the
// candidate proof reads. Observations are append-only, so each cache
// only ever grows; a Recency change or SetObservations drops the whole
// state. The basis 1 − e^(−r·i) is not per job: it comes from the
// shared table of basis.go.
type fitState struct {
	rec float64 // the recency every field below was built for

	// Fit memo: the fit at n observations stays valid until the n+1th
	// arrives, and schedulers ask for it several times per round per job
	// (stop decisions, accuracy extrapolation). n == 0 means no memo.
	n                int
	amax, rate, conf float64
	ok               bool

	// pows[k] = rec^k, each computed once with math.Pow, so the weight
	// vector {rec^0 … rec^(n-1)} is bit-identical to recomputing it.
	pows []float64

	// Running sums over the first folded observations, weighted
	// w_j = rec^(folded-1-j): num[ri] = Σw·acc·F and den[ri] = Σw·F² per
	// rate, saa = Σw·acc². Folding one observation costs O(|rates|):
	// s ← rec·s + term.
	folded   int
	num, den []float64
	saa      float64
	// maxIter is the largest folded iteration (0 if none is positive):
	// sharedBasis.covering(maxIter) holds every basis term the fit reads.
	maxIter int
	// inDomain: every folded observation has acc ∈ {0} ∪ [minCertAcc, 1]
	// and iteration ≥ 0, the domain certify's error bound covers.
	inDomain bool

	lo        []float64 // certify scratch: per-rate lower bound on the fit's weighted SSE
	certified bool      // the last computed fit evaluated certify's candidates only
}

// fitRates is the log-spaced rate grid of the fit, covering very slow to
// very fast convergence. Built by the same successive multiplication the
// fit loop historically ran, so the grid values are bit-identical to it.
var fitRates = func() []float64 {
	var rs []float64
	for r := 1e-4; r <= 2.0; r *= 1.25 {
		rs = append(rs, r)
	}
	return rs
}()

// Observe appends the accuracy measured after iteration iter. Observations
// must be appended in increasing iteration order; out-of-order points are
// ignored.
func (p *Predictor) Observe(iter int, acc float64) {
	if len(p.iters) > 0 && iter <= p.iters[len(p.iters)-1] {
		return
	}
	p.iters = append(p.iters, iter)
	p.accs = append(p.accs, acc)
}

// NumObservations returns how many points the predictor has seen.
func (p *Predictor) NumObservations() int { return len(p.iters) }

// Observations returns the observed (iteration, accuracy) series. The
// slices are the predictor's own storage; callers must not mutate them.
func (p *Predictor) Observations() (iters []int, accs []float64) {
	return p.iters, p.accs
}

// SetObservations replaces the whole observation series (snapshot
// restore). The fit state is dropped; it is a pure function of the
// series, so the next Fit recomputes bit-identical values to a predictor
// that observed the same points one by one.
func (p *Predictor) SetObservations(iters []int, accs []float64) {
	p.iters = append(p.iters[:0], iters...)
	p.accs = append(p.accs[:0], accs...)
	p.fit = nil
}

// LastIteration returns the latest observed iteration (0 when empty).
func (p *Predictor) LastIteration() int {
	if len(p.iters) == 0 {
		return 0
	}
	return p.iters[len(p.iters)-1]
}

// Fit returns the fitted (amax, rate) and a confidence in (0, 1]. It
// requires at least three observations; ok is false otherwise.
//
// For each grid rate r the fit takes amax = Σw·acc·F / Σw·F² (F the basis
// 1 − e^(−r·i)), drops rates whose amax is outside (0, 1.2], and keeps
// the rate with the least weighted mean squared error, the earliest on a
// tie. certify names the rates that can win; only those are evaluated.
func (p *Predictor) Fit() (amax, rate, confidence float64, ok bool) {
	n := len(p.iters)
	if n < 3 {
		return 0, 0, 0, false
	}
	rec := p.Recency
	if rec <= 0 || rec > 1 {
		rec = 0.97
	}
	st := p.fit
	if st == nil || st.rec != rec { //mlfs:allow floatcmp exact cache-key match: every cached weight and sum was built for exactly this recency; any bit change rebuilds them
		st = newFitState(rec)
		p.fit = st
	}
	if st.n == n {
		return st.amax, st.rate, st.conf, st.ok
	}
	for k := len(st.pows); k < n; k++ {
		st.pows = append(st.pows, math.Pow(rec, float64(k)))
	}
	basis := st.fold(p.iters, p.accs)
	// w_j = rec^(n-1-j), read out of the shared power table. The weight
	// sum is the same for every rate, accumulated in the same order.
	w := st.pows[:n]
	var wsum float64
	for j := range p.iters {
		wsum += w[n-1-j]
	}
	cut, certified := st.certify(n)
	bestSSE := math.Inf(1)
	for ri, r := range fitRates {
		if certified && st.lo[ri] > cut {
			continue // proven to lose to a certainly valid rate
		}
		a, sse, valid := fitRate(basis.rows[ri], r, p.iters, w, p.accs, wsum)
		if valid && sse < bestSSE {
			bestSSE, amax, rate = sse, a, r
		}
	}
	st.n, st.certified = n, certified
	if math.IsInf(bestSSE, 1) {
		st.amax, st.rate, st.conf, st.ok = 0, 0, 0, false
		return 0, 0, 0, false
	}
	// Confidence shrinks with the (weighted RMS) residual relative to the
	// fitted asymptote, and grows with sample count.
	rms := math.Sqrt(bestSSE)
	confidence = (1 - math.Min(1, rms/math.Max(amax, 1e-9))) * (1 - 1/float64(n))
	if confidence < 0 {
		confidence = 0
	}
	st.amax, st.rate, st.conf, st.ok = amax, rate, confidence, true
	return amax, rate, confidence, true
}

// fitRate is the weighted least-squares fit at grid rate r, whose
// basis row row (F_j = basisAt(row, r, iters[j])) comes from a table
// covering every iteration: the closed-form amax and the weighted mean
// squared error, or valid == false when the rate is skipped
// (Σw·F² = 0 or amax outside (0, 1.2]). Its expressions and summation
// order are the historical ones; certify's error bound is stated about
// exactly this evaluation. The explicit float64 conversions round every
// product, so no architecture fuses one into the following add.
func fitRate(row []float64, r float64, iters []int, w, accs []float64, wsum float64) (a, sse float64, valid bool) {
	n := len(accs)
	iters, w = iters[:n], w[:n]
	var num, den float64
	for j := range accs {
		f := basisAt(row, r, iters[j])
		num += float64(w[n-1-j] * accs[j] * f)
		den += float64(w[n-1-j] * f * f)
	}
	if den == 0 {
		return 0, 0, false
	}
	a = num / den
	if a <= 0 || a > 1.2 {
		return 0, 0, false
	}
	for j := range accs {
		f := float64(a * basisAt(row, r, iters[j]))
		d := accs[j] - f
		sse += float64(w[n-1-j] * d * d)
	}
	return a, sse / wsum, true
}

func newFitState(rec float64) *fitState {
	return &fitState{
		rec:      rec,
		num:      make([]float64, len(fitRates)),
		den:      make([]float64, len(fitRates)),
		lo:       make([]float64, len(fitRates)),
		inDomain: true,
	}
}

// fold extends the running sums to every observation and returns a
// basis table covering all of them.
func (st *fitState) fold(iters []int, accs []float64) *basisTable {
	n, rec, from := len(iters), st.rec, st.folded
	accs = accs[:n]
	for j := from; j < n; j++ {
		acc := accs[j]
		if iters[j] < 0 || !(acc == 0 || acc >= minCertAcc && acc <= 1) {
			st.inDomain = false
		}
		st.saa = float64(rec*st.saa) + float64(acc*acc)
		st.maxIter = max(st.maxIter, iters[j])
	}
	basis := sharedBasis.covering(st.maxIter)
	for ri, r := range fitRates {
		row, num, den := basis.rows[ri], st.num[ri], st.den[ri]
		for j := from; j < n; j++ {
			f := basisAt(row, r, iters[j])
			num = float64(rec*num) + float64(accs[j]*f)
			den = float64(rec*den) + float64(f*f)
		}
		st.num[ri], st.den[ri] = num, den
	}
	st.folded = n
	return basis
}

// Constants of the candidate proof (certify).
const (
	unitRoundoff = 0x1p-53   // u: float64 round-to-nearest relative error
	minCertAcc   = 0x1p-100  // smallest nonzero accuracy the proof covers
	minCertW     = 0x1p-480  // smallest weight rec^(n-1) the proof covers
	minCertNum   = 0x1p-200  // smallest nonzero running Σw·acc·F it covers
	maxCertN     = 1 << 20   // most observations it covers
	subnormalSSE = 0x1p-1000 // t: absolute slack for underflowing SSE products
	tieMargin    = 0x1p-40   // relative gap that survives the division by Σw
	minCut       = 0x1p-900  // keeps every excluded SSE / Σw a normal float
)

// certify bounds, from the running sums alone, what fitRate would return
// at every grid rate at n observations, and proves which rates cannot be
// the fit. It fills st.lo with a lower bound on each rate's unnormalised
// SSE (+Inf for a rate fitRate certainly skips) and returns cut: every
// rate with st.lo[ri] > cut loses to some rate fitRate certainly accepts.
// Scanning only the remaining rates, in ascending order with the
// historical strict < test, then picks the same rate with the same bits
// as scanning all of them. ok is false when the bound does not apply;
// the caller then evaluates every rate.
//
// Setting. Let ω_k = rec^k (rec the float64 recency), and over the n
// observations let N = Σω·acc·F, D = Σω·F², A = Σω·acc², all with
// ω = ω_(n-1-j). On the domain (acc ∈ {0} ∪ [2^-100, 1], iteration ≥ 0
// so F ∈ {0} ∪ [1−e^(−1e-4), 1], ω_(n-1) ≥ 2^-480) every term of these
// sums is zero or a normal float and non-negative, so a relative error
// bound on each term is one on the sum. With u = 2^-53:
//
//   - fitRate's num, den and SSE sum: math.Pow evaluates rec^k by
//     repeated squaring, relative error ≤ (1+u)^k − 1; two products and
//     n−1 additions follow. Each term is off by at most (1+u)^(2n) − 1.
//   - the running sums: a term is rounded once as a product, once when
//     added, then once per later rec· and +: again (1+u)^(2n) − 1.
//
// So e = 4nu (≥ (1+u)^(2n) − 1 and ≥ 12u) bounds the relative error of
// every sum here. Fused multiply-adds only remove roundings.
//
// Validity. fitRate's a and the estimate ã = num/den are each within 3e
// of α = N/D, so a ∈ ã·[1−7e, 1+7e]. num = 0 iff N = 0, and then fitRate
// skips the rate (den = 0 or a = 0). ã·(1−8e) > 1.2 proves a > 1.2;
// num > 0 and ã·(1+8e) < 1.2 prove a ∈ (0, 1.2): certainly valid.
//
// SSE. fitRate's sum before the division is X = Σw·d·d with
// d = acc − fl(a·F). Let S(a) = Σω(acc − a·F)² = S* + D(a − α)², where
// S* = A − Q ≥ 0 with Q = N²/D (Cauchy–Schwarz). Then
// S(a) ∈ [S*, S* + 9e²·Q]. fl(a·F) moves d by a vector η of weighted
// norm ≤ u·a·√D ≤ 1.01u·√Q, so |‖d‖² − S(a)| ≤ 2‖η‖·√S(a) + ‖η‖² ≤
// 2u·(S(a) + Q) ≤ 2u·(A + Q) up to O(e²), and
//
//	(1−e)(1−u)²·(S* − 2u(A + Q)) − t ≤ X ≤ (1+e)(1+u)²·(S* + 9e²Q + 2u(A + Q)) + t
//
// where t = 2^-1000 covers products w·d and w·d·d that underflow. From
// the running sums, Q̃ = num·ã is within 5e of Q and saa within e of A,
// so S* ∈ (saa − Q̃) ± 5.1e·(saa + Q̃). The code takes 8e·(saa + Q̃),
// 16e²·Q̃ and factors 1 ± 2e: since e ≥ 12u, the spare 2.9e absorbs the
// 2u terms and the few roundings of evaluating the bounds themselves.
//
// Cut. Let T be the least upper bound over certainly valid rates and
// cut = max(T·(1+2^-40), 2^-900). If X_R ≥ lo_R > cut, then X_R/W and
// X_B/W (W = Σw ≤ n, the common divisor) are at least 2^-40 apart
// relatively with X_R/W a normal float, so fl(X_R/W) > fl(X_B/W)
// strictly: R loses to B even after the division's rounding, and no tie
// the strict < would break toward R can appear.
//
// Fallback (ok == false): an observation outside the domain (non-finite
// or out-of-range accuracy, negative iteration), n > maxCertN (the bound
// holds for e ≪ 1 and ≤ 2^20 underflowing products), ω_(n-1) < 2^-480
// or a running Σw·acc·F in (0, 2^-200) (underflow), or no certainly
// valid rate.
func (st *fitState) certify(n int) (cut float64, ok bool) {
	if !st.inDomain || n > maxCertN || !(st.pows[n-1] >= minCertW) {
		return 0, false
	}
	e := 4 * float64(n) * unitRoundoff
	best := math.Inf(1)
	for ri := range fitRates {
		num, den := st.num[ri], st.den[ri]
		st.lo[ri] = math.Inf(1)
		if num == 0 {
			continue // N = 0: fitRate skips the rate
		}
		if num < minCertNum {
			return 0, false
		}
		a := num / den
		if a*(1-8*e) > 1.2 {
			continue // certainly amax > 1.2
		}
		q := num * a // ≈ N²/D
		diff, slack := st.saa-q, 8*e*(st.saa+q)
		st.lo[ri] = (1-2*e)*math.Max(0, diff-slack) - subnormalSSE
		if a*(1+8*e) < 1.2 {
			best = math.Min(best, (1+2*e)*(diff+slack+16*e*e*q)+subnormalSSE)
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return math.Max(best*(1+tieMargin), minCut), true
}

// Predict extrapolates the accuracy at iteration iter. ok is false when
// the predictor has too few observations to fit.
func (p *Predictor) Predict(iter int) (acc, confidence float64, ok bool) {
	amax, rate, conf, ok := p.Fit()
	if !ok {
		return 0, 0, false
	}
	a := amax * (1 - math.Exp(-rate*float64(iter)))
	return math.Max(0, math.Min(1, a)), conf, true
}

// StopOption is the user choice of §3.5: how a job's training run may be
// terminated.
type StopOption int

const (
	// RunToMaxIterations is option (i): run exactly the iterations the
	// user asked for.
	RunToMaxIterations StopOption = iota
	// OptStop is option (ii): stop when the achieved accuracy equals or is
	// close to the predicted maximum accuracy.
	OptStop
	// StopAtTarget is option (iii): stop as soon as the job's required
	// accuracy is achieved.
	StopAtTarget
)

// String names the option.
func (o StopOption) String() string {
	switch o {
	case RunToMaxIterations:
		return "run-to-max"
	case OptStop:
		return "optstop"
	case StopAtTarget:
		return "stop-at-target"
	default:
		return "unknown"
	}
}

// Downgrade returns the next more aggressive option (i -> ii -> iii); iii
// downgrades to itself. MLF-C applies this when the system is overloaded
// and the user permitted the switch (§3.5).
func (o StopOption) Downgrade() StopOption {
	switch o {
	case RunToMaxIterations:
		return OptStop
	default:
		return StopAtTarget
	}
}

// StopDecision configures ShouldStop.
type StopDecision struct {
	Option StopOption
	// Target is the job's required accuracy (used by StopAtTarget and by
	// the hopeless-job early exit).
	Target float64
	// MaxIterations is the user-specified iteration budget I_max.
	MaxIterations int
	// ConfidenceThreshold gates the hopeless-job early stop: training of a
	// job predicted to miss Target at I_max stops only when the prediction
	// confidence exceeds this (§3.5). Default 0.8.
	ConfidenceThreshold float64
	// NearMaxFraction is how close to the predicted maximum accuracy
	// OptStop requires before stopping. Default 0.99.
	NearMaxFraction float64
	// MinObservations gates the hopeless-job early exit: extrapolations
	// from fewer points are too unreliable to kill a job over.
	// Default 12.
	MinObservations int
}

// ShouldStop decides whether a job at iteration iter with achieved
// accuracy achieved should stop training now, per the policy in §3.5.
func (d StopDecision) ShouldStop(p *Predictor, iter int, achieved float64) bool {
	if d.MaxIterations > 0 && iter >= d.MaxIterations {
		return true
	}
	conf := d.ConfidenceThreshold
	if conf == 0 {
		conf = 0.8
	}
	nearMax := d.NearMaxFraction
	if nearMax == 0 {
		nearMax = 0.99
	}
	minObs := d.MinObservations
	if minObs == 0 {
		minObs = 12
	}
	// Hopeless: the curve will confidently not come close to the target by
	// I_max. Gated on sample count and a margin so early-training
	// mis-extrapolations don't kill viable jobs.
	hopeless := func() bool {
		if d.Target <= 0 || p.NumObservations() < minObs {
			return false
		}
		// Extrapolating a slow curve from its near-linear head badly
		// underestimates the asymptote; require the observations to cover
		// a third of the budget before a job can be written off.
		if d.MaxIterations > 0 && p.LastIteration() < d.MaxIterations/3 {
			return false
		}
		_, _, c, ok := p.Fit()
		if !ok || c <= conf {
			return false
		}
		predicted, _, _ := p.Predict(d.MaxIterations)
		return predicted < 0.9*d.Target
	}
	switch d.Option {
	case RunToMaxIterations:
		return false
	case OptStop:
		if hopeless() {
			return true
		}
		if p.NumObservations() < minObs {
			return false
		}
		amax, _, c, ok := p.Fit()
		if !ok {
			return false
		}
		// Converged: achieved accuracy is within NearMaxFraction of the
		// predicted asymptote.
		return c > conf && achieved >= nearMax*amax
	case StopAtTarget:
		if d.Target > 0 && achieved >= d.Target {
			return true
		}
		return hopeless()
	default:
		return false
	}
}
