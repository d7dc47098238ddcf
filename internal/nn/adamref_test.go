package nn

import (
	"math"
	"math/rand"
	"testing"

	"mlfs/internal/snapshot"
)

// refApply is Adam.Apply before the certified step, verbatim: every
// parameter takes the full update expression on every step. It is the
// oracle Apply must match bit for bit.
func (a *Adam) refApply(n *Net, g *Grads) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for l := range n.W {
		for i, gv := range g.DW[l].Data {
			a.mW[l].Data[i] = a.Beta1*a.mW[l].Data[i] + (1-a.Beta1)*gv
			a.vW[l].Data[i] = a.Beta2*a.vW[l].Data[i] + (1-a.Beta2)*gv*gv
			n.W[l].Data[i] -= a.LR * (a.mW[l].Data[i] / c1) / (math.Sqrt(a.vW[l].Data[i]/c2) + a.Eps)
		}
		for i, gv := range g.DB[l] {
			a.mB[l][i] = a.Beta1*a.mB[l][i] + (1-a.Beta1)*gv
			a.vB[l][i] = a.Beta2*a.vB[l][i] + (1-a.Beta2)*gv*gv
			n.B[l][i] -= a.LR * (a.mB[l][i] / c1) / (math.Sqrt(a.vB[l][i]/c2) + a.Eps)
		}
	}
}

// adamTrack is one net and its optimiser, stepped by Apply or refApply.
type adamTrack struct {
	net *Net
	opt *Adam
}

func newAdamTrack(sizes []int, lr float64) adamTrack {
	net := NewNet(sizes, 5)
	return adamTrack{net: net, opt: NewAdam(net, lr)}
}

// params lists every parameter, first moment and second moment slice of
// the track in one fixed order.
func (tr adamTrack) params() (w, m, v [][]float64) {
	for l := range tr.net.W {
		w = append(w, tr.net.W[l].Data, tr.net.B[l])
		m = append(m, tr.opt.mW[l].Data, tr.opt.mB[l])
		v = append(v, tr.opt.vW[l].Data, tr.opt.vB[l])
	}
	return w, m, v
}

// sameBits fails the test at the first parameter, first-moment or
// second-moment element whose bits differ between the tracks.
func sameBits(t *testing.T, what string, step int, got, want adamTrack) {
	t.Helper()
	gw, gm, gv := got.params()
	ww, wm, wv := want.params()
	for _, c := range []struct {
		name      string
		got, want [][]float64
	}{{"w", gw, ww}, {"m", gm, wm}, {"v", gv, wv}} {
		for s := range c.want {
			for i, x := range c.want[s] {
				if y := c.got[s][i]; math.Float64bits(y) != math.Float64bits(x) {
					t.Fatalf("%s step %d: %s[%d][%d] = %v (%#x), reference %v (%#x)",
						what, step, c.name, s, i, y, math.Float64bits(y), x, math.Float64bits(x))
				}
			}
		}
	}
}

// TestAdamMatchesReference runs the certified Apply and the verbatim
// refApply side by side for 20,000 steps on the MLF-RL net shape
// (18→32→16→1) and compares the bits of every weight, bias and moment
// after every step. From step 2,000 on, a fixed third of the parameters
// gets exactly zero gradients, so their first moments decay into
// subnormals (where they stick: 0.9·k·2^-1074 rounds back to k·2^-1074
// for k ≤ 4) and the skip fires on them. Mid-run the state goes through
// EncodeState/DecodeState into a fresh net and optimiser, which must
// then continue bit-identically to the uninterrupted run.
func TestAdamMatchesReference(t *testing.T) {
	const steps, quiet, resumeAt = 20000, 2000, 9000
	sizes := []int{18, 32, 16, 1}
	got, ref := newAdamTrack(sizes, 3e-4), newAdamTrack(sizes, 3e-4)
	var resumed adamTrack
	g := got.net.NewGrads()
	var gs [][]float64
	for l := range g.DW {
		gs = append(gs, g.DW[l].Data, g.DB[l])
	}
	rng := rand.New(rand.NewSource(11))
	var zeroed [][]bool
	for _, s := range gs {
		z := make([]bool, len(s))
		for i := range z {
			z[i] = rng.Intn(3) == 0
		}
		zeroed = append(zeroed, z)
	}
	subnormal := 0
	for step := 1; step <= steps; step++ {
		for s := range gs {
			for i := range gs[s] {
				if step > quiet && zeroed[s][i] {
					gs[s][i] = 0
				} else {
					gs[s][i] = 0.01 * rng.NormFloat64()
				}
			}
		}
		got.opt.Apply(got.net, g)
		ref.opt.refApply(ref.net, g)
		sameBits(t, "uninterrupted", step, got, ref)
		if resumed.net != nil {
			resumed.opt.Apply(resumed.net, g)
			sameBits(t, "resumed", step, resumed, ref)
		}
		if step == resumeAt {
			w := snapshot.NewWriter()
			got.net.EncodeState(w)
			got.opt.EncodeState(w)
			resumed = newAdamTrack(sizes, 3e-4)
			r := snapshot.NewReader(w.Bytes())
			if err := resumed.net.DecodeState(r); err != nil {
				t.Fatal(err)
			}
			if err := resumed.opt.DecodeState(r); err != nil {
				t.Fatal(err)
			}
		}
		_, ms, _ := got.params()
		for _, s := range ms {
			for _, x := range s {
				if x != 0 && math.Abs(x) < 0x1p-1022 {
					subnormal++
				}
			}
		}
	}
	// The run must reach the regime the skip is for, or it proves nothing.
	if subnormal < 1_000_000 {
		t.Fatalf("only %d subnormal moment-steps; the test no longer exercises the skip", subnormal)
	}
}

// TestAdamSkipBoundary drives parameters the skip must leave to the
// exact expression — w = ±0, |w| just below the floor, ε = 0, a huge LR
// whose floor overflows, a NaN moment — next to ones it may skip, all
// with subnormal or zero first moments, and requires every bit to match
// refApply.
func TestAdamSkipBoundary(t *testing.T) {
	cases := []struct {
		name    string
		lr, eps float64
	}{
		{"defaults", 3e-4, 1e-8},
		{"eps=0", 3e-4, 0},
		{"eps<0", 3e-4, -1e-8},
		{"huge-lr", 1e300, 1e-8},
		{"overflowing-floor", 1e300, 1e-300},
		{"lr=0", 0, 1e-8},
		{"negative-lr", -3e-4, 1e-8},
		{"nan-lr", math.NaN(), 1e-8},
	}
	ws := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1e-300, -1e-300, 1e-290, 4e-287, 1e-280, 1e-3, -0.5, 1, 2, 0x1p-1022,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	ms := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1023, math.NaN(),
	}
	vs := []float64{0, 1e-300, 1e-12, 1, math.Inf(1), -1, math.NaN()}
	for _, c := range cases {
		for _, t0 := range []int{0, 400} { // before and after c1 rounds to exactly 1
			n := len(ws) * len(ms) * len(vs)
			newTrack := func() adamTrack {
				tr := adamTrack{net: NewNet([]int{n, 1}, 1)}
				tr.opt = NewAdam(tr.net, c.lr)
				tr.opt.Eps, tr.opt.t = c.eps, t0
				k := 0
				for _, w := range ws {
					for _, m := range ms {
						for _, v := range vs {
							tr.net.W[0].Data[k], tr.opt.mW[0].Data[k], tr.opt.vW[0].Data[k] = w, m, v
							k++
						}
					}
				}
				return tr
			}
			got, ref := newTrack(), newTrack()
			g := got.net.NewGrads()
			for step := 1; step <= 20; step++ {
				got.opt.Apply(got.net, g)
				ref.opt.refApply(ref.net, g)
				sameBits(t, c.name, t0+step, got, ref)
			}
		}
	}
}

// TestAdamSkipFloor pins the floor's guards: NaN (no skip) where the
// proof does not apply, at least the least positive float otherwise.
func TestAdamSkipFloor(t *testing.T) {
	net := NewNet([]int{1, 1}, 1)
	a := NewAdam(net, 3e-4)
	if f := a.skipFloor(1, 0.5); !(f > 0x1p-1022 && f < 1e-280) {
		t.Fatalf("default floor %v out of the expected range", f)
	}
	for _, c := range []struct {
		name            string
		lr, eps, c1, c2 float64
	}{
		{"eps=0", 3e-4, 0, 1, 0.5},
		{"eps=NaN", 3e-4, math.NaN(), 1, 0.5},
		{"c1=0", 3e-4, 1e-8, 0, 0.5},
		{"c2<0", 3e-4, 1e-8, 1, -0.5},
		{"overflow", 1e300, 1e-300, 1, 0.5},
		{"lr=Inf", math.Inf(1), 1e-8, 1, 0.5},
	} {
		a.LR, a.Eps = c.lr, c.eps
		if f := a.skipFloor(c.c1, c.c2); !math.IsNaN(f) {
			t.Errorf("%s: floor %v, want NaN", c.name, f)
		}
	}
	a.LR, a.Eps = 0, 1e-8
	if f := a.skipFloor(1, 0.5); f != math.SmallestNonzeroFloat64 {
		t.Errorf("lr=0: floor %v, want the least positive float", f)
	}
}

// TestMulSubnormalMatchesFPU: the integer product of a factor in
// [0.5, 1) and a subnormal or zero float has the bits the FPU's
// multiply gives — exhaustively over the first 2^16 subnormals and on
// random ones up to the largest, for the default β1 and for factors at
// both ends of the range and in between, both signs.
func TestMulSubnormalMatchesFPU(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	factors := []float64{0.9, 0.5, math.Nextafter(1, 0), 0.75, math.Nextafter(0.5, 1), 0.999}
	for i := 0; i < 20; i++ {
		factors = append(factors, 0.5+rng.Float64()/2)
	}
	ks := []uint64{1<<52 - 1, 1 << 51, 1<<52 - 2}
	for k := uint64(0); k < 1<<16; k++ {
		ks = append(ks, k)
	}
	for i := 0; i < 1<<16; i++ {
		ks = append(ks, uint64(rng.Int63n(1<<52)))
	}
	for _, b := range factors {
		sig, ok := unitSignificand(b)
		if !ok {
			t.Fatalf("factor %v rejected", b)
		}
		for _, k := range ks {
			for _, sign := range []uint64{0, 1 << 63} {
				m := math.Float64frombits(sign | k)
				if got, want := mulSubnormal(sig, sign|k), float64(b*m); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v·%v: integer %v (%#x), FPU %v (%#x)", b, m, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
	for _, b := range []float64{1, 0.4999, 0, -0.9, math.NaN()} {
		if _, ok := unitSignificand(b); ok {
			t.Errorf("factor %v accepted", b)
		}
	}
}
