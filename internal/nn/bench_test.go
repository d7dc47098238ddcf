package nn

import "testing"

// fillFeatures writes deterministic pseudo-features; the same values go
// through both benchmark variants so only the engine differs.
func fillFeatures(dst []float64, decision, cand int) {
	for k := range dst {
		dst[k] = float64((decision*31+cand*7+k*13)%97) / 97
	}
}

// BenchmarkForwardBatch measures one round of candidate scoring at the
// MLF-RL shape (16 candidates through an 18→32→16→1 net), staging
// included. "reference" reproduces the historical per-decision path:
// assemble a fresh [][]float64 of feature vectors, then run Forward per
// candidate with per-layer activation allocations. "batched" is the new
// path: fill the policy's staging matrix in place and run one fused
// zero-allocation batch. The ratio is the policy-scoring speedup.
func BenchmarkForwardBatch(b *testing.B) {
	b.Run("reference", func(b *testing.B) {
		p := NewPolicy(18, []int{32, 16}, 3e-4, 1)
		p.SetReference(true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cands := make([][]float64, 16)
			for c := range cands {
				f := make([]float64, 18)
				fillFeatures(f, i, c)
				cands[c] = f
			}
			p.Probs(cands)
		}
	})
	b.Run("batched", func(b *testing.B) {
		p := NewPolicy(18, []int{32, 16}, 3e-4, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := p.Candidates(16)
			for c := 0; c < 16; c++ {
				fillFeatures(x.Row(c), i, c)
			}
			p.ProbsBatch(x)
		}
	})
}

// BenchmarkImitationBatch measures the per-decision cost of an
// imitation update over 16 candidates.
//
//	reference    – historical path: Forward per candidate, then a
//	               per-candidate Backprop (which re-runs the forward
//	               pass internally and computes an unused input
//	               gradient), one Adam step per decision.
//	batched      – fused batch forward/backward, one Adam step per
//	               decision (BatchSize=1 semantics, bit-identical to
//	               reference).
//	minibatch16  – fused batch forward/backward, gradients accumulated
//	               over 16 decisions per Adam step (BatchSize=16); the
//	               reported ns/op stays per-decision.
func BenchmarkImitationBatch(b *testing.B) {
	b.Run("reference", func(b *testing.B) {
		p := NewPolicy(18, []int{32, 16}, 3e-4, 1)
		p.SetReference(true)
		cands := make([][]float64, 16)
		for c := range cands {
			cands[c] = make([]float64, 18)
			fillFeatures(cands[c], 0, c)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Imitate(cands, i%16)
		}
	})
	b.Run("batched", func(b *testing.B) {
		p := NewPolicy(18, []int{32, 16}, 3e-4, 1)
		x := p.Candidates(16)
		for c := 0; c < 16; c++ {
			fillFeatures(x.Row(c), 0, c)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ImitateBatch(x, i%16)
		}
	})
	b.Run("minibatch16", func(b *testing.B) {
		p := NewPolicy(18, []int{32, 16}, 3e-4, 1)
		x := p.Candidates(16)
		for c := 0; c < 16; c++ {
			fillFeatures(x.Row(c), 0, c)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.AccumImitate(x, i%16)
			if p.Accumulated() == 16 {
				p.Step()
			}
		}
	})
}
