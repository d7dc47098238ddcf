package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVecAddSub(t *testing.T) {
	v := Vec{1, 2, 3, 4}
	w := Vec{4, 3, 2, 1}
	got := v.Add(w)
	want := Vec{5, 5, 5, 5}
	if got != want {
		t.Fatalf("Add = %v, want %v", got, want)
	}
	if back := got.Sub(w); back != v {
		t.Fatalf("Sub = %v, want %v", back, v)
	}
}

func TestVecScale(t *testing.T) {
	v := Vec{1, 2, 3, 4}
	got := v.Scale(2)
	if got != (Vec{2, 4, 6, 8}) {
		t.Fatalf("Scale = %v", got)
	}
	if z := v.Scale(0); z != (Vec{}) {
		t.Fatalf("Scale(0) = %v, want zero", z)
	}
}

func TestVecDivZeroDenominator(t *testing.T) {
	v := Vec{1, 2, 3, 4}
	w := Vec{2, 0, 3, 0}
	got := v.Div(w)
	want := Vec{0.5, 0, 1, 0}
	if got != want {
		t.Fatalf("Div = %v, want %v (zero denominators must yield 0)", got, want)
	}
}

func TestVecNorm(t *testing.T) {
	v := Vec{3, 4, 0, 0}
	if !almostEq(v.Norm(), 5) {
		t.Fatalf("Norm = %v, want 5", v.Norm())
	}
	if !almostEq((Vec{}).Norm(), 0) {
		t.Fatal("zero vector must have zero norm")
	}
}

func TestVecDistanceSymmetric(t *testing.T) {
	v := Vec{1, 2, 3, 4}
	w := Vec{4, 4, 4, 4}
	if !almostEq(v.Distance(w), w.Distance(v)) {
		t.Fatal("Distance must be symmetric")
	}
	if !almostEq(v.Distance(v), 0) {
		t.Fatal("Distance(v,v) must be 0")
	}
}

func TestVecAnyAbove(t *testing.T) {
	v := Vec{0.1, 0.95, 0.2, 0.3}
	if !v.AnyAbove(0.9) {
		t.Fatal("expected AnyAbove(0.9) true")
	}
	if v.AnyAbove(0.95) {
		t.Fatal("0.95 is not strictly above 0.95")
	}
}

func TestVecClamp(t *testing.T) {
	if cl := (Vec{-1, 2, -0.5, 0}).Clamp(); cl != (Vec{0, 2, 0, 0}) {
		t.Fatalf("Clamp = %v", cl)
	}
}

func TestVecString(t *testing.T) {
	s := (Vec{1, 2, 3, 4}).String()
	for _, want := range []string{"gpu:1", "cpu:2", "memory:3", "bandwidth:4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestResourceString(t *testing.T) {
	if ResGPU.String() != "gpu" || ResBandwidth.String() != "bandwidth" {
		t.Fatal("unexpected resource names")
	}
	if !strings.Contains(Resource(99).String(), "99") {
		t.Fatal("out-of-range resource should include its number")
	}
}

// Property: Add is commutative and associative; Sub inverts Add.
func TestVecAddProperties(t *testing.T) {
	comm := func(a, b Vec) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("Add not commutative: %v", err)
	}
	inv := func(a, b Vec) bool {
		for _, v := range []Vec{a, b} {
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
					return true
				}
			}
		}
		got := a.Add(b).Sub(b)
		for i := range got {
			if math.Abs(got[i]-a[i]) > 1e-6*(1+math.Abs(a[i])+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(inv, cfg); err != nil {
		t.Errorf("Sub does not invert Add: %v", err)
	}
}

// Property: triangle inequality for Distance.
func TestVecTriangleInequality(t *testing.T) {
	tri := func(a, b, c Vec) bool {
		// Guard against overflow-generated Inf/NaN inputs.
		for _, v := range []Vec{a, b, c} {
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
					return true
				}
			}
		}
		return a.Distance(c) <= a.Distance(b)+b.Distance(c)+1e-6
	}
	if err := quick.Check(tri, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("triangle inequality violated: %v", err)
	}
}

// Property: Norm is absolutely homogeneous: ||s*v|| = |s|*||v||.
func TestVecNormHomogeneous(t *testing.T) {
	prop := func(v Vec, s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e50 {
			return true
		}
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e50 {
				return true
			}
		}
		l, r := v.Scale(s).Norm(), math.Abs(s)*v.Norm()
		return math.Abs(l-r) <= 1e-6*(1+r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("norm not homogeneous: %v", err)
	}
}
