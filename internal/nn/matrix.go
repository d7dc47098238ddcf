// Package nn is a small from-scratch neural-network library: dense
// matrices, an MLP with ReLU hidden layers, softmax, cross-entropy,
// SGD/Adam optimisers and the REINFORCE policy-gradient utilities MLF-RL
// needs (§3.4). Go has no ML ecosystem, so the paper's "DNN as the agent"
// is built here on the standard library alone.
//
// Determinism: weight initialisation and sampling use caller-seeded
// sources only, everything runs on the caller's goroutine, and the
// batched engine produces each output element with one accumulator in
// the per-sample summation order, so batched and per-sample results are
// bit-identical. The package is enrolled in the lint DeterministicPaths registry (mapiter,
// noclock, sharedcapture), plus the repo-wide epochguard, floatcmp and
// pkgdoc checks.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	//mlfs:derived codecs persist Data plus the non-implied dimension; decode rebuilds via NewMatrix and validates element counts
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Reshape resizes m in place to rows×cols, reusing the backing array
// when it has the capacity and growing it otherwise, and returns m. The
// element values after a Reshape are unspecified — callers overwrite
// them. This is how the batched engine's scratch matrices are recycled
// across calls without allocating.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid reshape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddScaled adds s·other element-wise in place.
func (m *Matrix) AddScaled(other *Matrix, s float64) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("nn: AddScaled shape mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
}

// MulVec computes m·x for a column vector x (len Cols), returning a
// vector of len Rows.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("nn: MulVec got %d elements, want %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVecT computes mᵀ·y for a column vector y (len Rows), returning a
// vector of len Cols — the backward pass of MulVec.
func (m *Matrix) MulVecT(y []float64) []float64 {
	if len(y) != m.Rows {
		panic(fmt.Sprintf("nn: MulVecT got %d elements, want %d", len(y), m.Rows))
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		yi := y[i]
		for j, w := range row {
			out[j] += w * yi
		}
	}
	return out
}

// XavierInit fills the matrix with Glorot-uniform values.
func (m *Matrix) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * limit
	}
}

// Softmax returns the softmax of the logits, numerically stabilised.
func Softmax(logits []float64) []float64 {
	if len(logits) == 0 {
		return nil
	}
	return SoftmaxInto(make([]float64, len(logits)), logits)
}

// SoftmaxInto writes the softmax of logits into dst (which must have
// the same length) and returns dst. The allocation-free form used by
// the batched policy scoring path; the operation order is identical to
// Softmax, so the two are bit-identical.
func SoftmaxInto(dst, logits []float64) []float64 {
	if len(dst) != len(logits) {
		panic(fmt.Sprintf("nn: SoftmaxInto got dst len %d, want %d", len(dst), len(logits)))
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// CrossEntropy returns −log p[target], clamped away from infinity.
func CrossEntropy(probs []float64, target int) float64 {
	p := probs[target]
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}

// Argmax returns the index of the largest value (lowest index wins ties).
func Argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// SampleCategorical draws an index from the distribution probs using rng.
func SampleCategorical(rng *rand.Rand, probs []float64) int {
	x := rng.Float64()
	for i, p := range probs {
		if x < p {
			return i
		}
		x -= p
	}
	return len(probs) - 1
}
