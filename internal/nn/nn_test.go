package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("At/Set wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be deep")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestMatrixPanics(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { NewMatrix(0, 2) })
	mustPanic(func() { NewMatrix(2, 2).MulVec([]float64{1}) })
	mustPanic(func() { NewMatrix(2, 2).MulVecT([]float64{1, 2, 3}) })
	mustPanic(func() { NewNet([]int{4}, 1) })
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [1 2 3; 4 5 6] · [1 1 1]ᵀ = [6 15]
	for j := 0; j < 3; j++ {
		m.Set(0, j, float64(j+1))
		m.Set(1, j, float64(j+4))
	}
	got := m.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
	// Transpose: mᵀ·[1 1]ᵀ = [5 7 9]
	gt := m.MulVecT([]float64{1, 1})
	if gt[0] != 5 || gt[1] != 7 || gt[2] != 9 {
		t.Fatalf("MulVecT = %v", gt)
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 1, 1})
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	// Stability with huge logits.
	p = Softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || p[1] <= p[0] {
		t.Fatalf("softmax unstable: %v", p)
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatal("softmax must sum to 1")
	}
	if Softmax(nil) != nil {
		t.Fatal("empty softmax")
	}
}

func TestCrossEntropy(t *testing.T) {
	if CrossEntropy([]float64{0.5, 0.5}, 0) != -math.Log(0.5) {
		t.Fatal("cross entropy wrong")
	}
	if v := CrossEntropy([]float64{0, 1}, 0); math.IsInf(v, 1) {
		t.Fatal("cross entropy must clamp")
	}
}

func TestArgmaxAndSample(t *testing.T) {
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Fatal("argmax")
	}
	if Argmax([]float64{2, 2}) != 0 {
		t.Fatal("argmax tie must pick lowest index")
	}
	rng := rand.New(rand.NewSource(1))
	counts := [3]int{}
	probs := []float64{0.2, 0.5, 0.3}
	for i := 0; i < 30000; i++ {
		counts[SampleCategorical(rng, probs)]++
	}
	for i, p := range probs {
		f := float64(counts[i]) / 30000
		if math.Abs(f-p) > 0.02 {
			t.Fatalf("sample freq[%d] = %v, want %v", i, f, p)
		}
	}
}

func TestNetShapes(t *testing.T) {
	n := NewNet([]int{4, 8, 3}, 7)
	if n.InputSize() != 4 || n.OutputSize() != 3 {
		t.Fatal("sizes")
	}
	if n.NumParams() != 4*8+8+8*3+3 {
		t.Fatalf("NumParams = %d", n.NumParams())
	}
	out := n.Forward([]float64{1, 2, 3, 4})
	if len(out) != 3 {
		t.Fatal("forward shape")
	}
	// Deterministic under seed.
	n2 := NewNet([]int{4, 8, 3}, 7)
	out2 := n2.Forward([]float64{1, 2, 3, 4})
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("same seed must give same net")
		}
	}
}

// Gradient check: analytic Backprop gradients must match numerical
// central differences.
func TestGradientCheck(t *testing.T) {
	n := NewNet([]int{3, 5, 2}, 3)
	x := []float64{0.5, -0.2, 0.8}
	target := 1
	loss := func() float64 {
		return CrossEntropy(Softmax(n.Forward(x)), target)
	}
	g := n.NewGrads()
	probs := Softmax(n.Forward(x))
	dLogits := append([]float64(nil), probs...)
	dLogits[target] -= 1
	n.Backprop(x, dLogits, g)

	const eps = 1e-6
	check := func(get func() *float64, analytic float64, what string) {
		p := get()
		orig := *p
		*p = orig + eps
		lp := loss()
		*p = orig - eps
		lm := loss()
		*p = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("%s: numeric %v vs analytic %v", what, numeric, analytic)
		}
	}
	for l := range n.W {
		for i := 0; i < len(n.W[l].Data); i += 3 {
			idx := i
			check(func() *float64 { return &n.W[l].Data[idx] }, g.DW[l].Data[idx], "W")
		}
		for i := range n.B[l] {
			idx := i
			check(func() *float64 { return &n.B[l][idx] }, g.DB[l][idx], "B")
		}
	}
}

func TestAdamLearnsXOR(t *testing.T) {
	n := NewNet([]int{2, 16, 2}, 5)
	opt := NewAdam(n, 0.01)
	data := [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	g := n.NewGrads()
	for epoch := 0; epoch < 800; epoch++ {
		g.Zero()
		for i, d := range data {
			x := []float64{d[0], d[1]}
			probs := Softmax(n.Forward(x))
			dl := append([]float64(nil), probs...)
			dl[labels[i]] -= 1
			n.Backprop(x, dl, g)
		}
		g.Scale(1.0 / float64(len(data)))
		opt.Apply(n, g)
	}
	for i, d := range data {
		probs := Softmax(n.Forward([]float64{d[0], d[1]}))
		if Argmax(probs) != labels[i] {
			t.Fatalf("XOR case %v misclassified: %v", d, probs)
		}
	}
}

func TestGradsScale(t *testing.T) {
	n := NewNet([]int{2, 2}, 1)
	g := n.NewGrads()
	g.DW[0].Set(0, 0, 2)
	g.DB[0][1] = 4
	g.Scale(0.5)
	if g.DW[0].At(0, 0) != 1 || g.DB[0][1] != 2 {
		t.Fatal("Scale wrong")
	}
}

// rowsMatrix builds a candidates×features matrix, one row per slice.
func rowsMatrix(rows ...[]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestPolicyImitationLearnsPreference(t *testing.T) {
	p := NewPolicy(3, []int{8}, 0.02, 9)
	// Candidate with feature[0]=1 is always the right answer.
	cands := rowsMatrix([]float64{0, 1, 0}, []float64{1, 0, 0}, []float64{0, 0, 1})
	for i := 0; i < 300; i++ {
		p.ImitateBatch(cands, 1)
	}
	idx, probs := p.ChooseBatch(cands, false)
	if idx != 1 {
		t.Fatalf("imitation failed: chose %d with %v", idx, probs)
	}
	if probs[1] < 0.8 {
		t.Fatalf("preference too weak: %v", probs)
	}
}

func TestPolicyReinforceLearnsPreference(t *testing.T) {
	p := NewPolicy(2, []int{8}, 0.05, 13)
	cands := rowsMatrix([]float64{1, 0}, []float64{0, 1})
	// Reward choosing candidate 0, punish candidate 1.
	for i := 0; i < 400; i++ {
		idx, _ := p.ChooseBatch(cands, true)
		reward := 1.0
		if idx == 1 {
			reward = -1.0
		}
		p.ReinforceBatch(cands, idx, reward)
	}
	idx, probs := p.ChooseBatch(cands, false)
	if idx != 0 || probs[0] < 0.8 {
		t.Fatalf("REINFORCE failed: chose %d with %v", idx, probs)
	}
}

// Property: softmax output is a valid distribution for any finite logits.
func TestSoftmaxProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := Softmax(raw)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
