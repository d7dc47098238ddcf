package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mlfs"
	"mlfs/internal/nn"
)

// nnBenchMicro is one measured micro-benchmark of the policy engine at
// the MLF-RL decision shape (16 candidate servers scored through the
// 18→32→16→1 policy net).
type nnBenchMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"` // per decision
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// nnBenchHeadline is the end-to-end number: the MLF-RL Figure-4 sweep
// timed wall-clock on the batched engine, against the recorded
// pre-batching wall time of the same sweep on the same machine class.
type nnBenchHeadline struct {
	Benchmark        string  `json:"benchmark"`
	WallSeconds      float64 `json:"wall_seconds"`
	BaselineWallSecs float64 `json:"baseline_wall_seconds,omitempty"`
	Speedup          float64 `json:"speedup_vs_baseline,omitempty"`
	MLFRLAvgJCTMin   float64 `json:"mlfrl_avg_jct_min"` // result fingerprint: batching must not move it
}

// nnBenchReport is the BENCH_nn.json schema.
type nnBenchReport struct {
	GeneratedAt string           `json:"generated_at"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	Headline    *nnBenchHeadline `json:"headline,omitempty"`
	// ScoringSpeedup: per-decision candidate scoring (staging + softmax
	// inference), batched engine vs the historical per-candidate path.
	ScoringSpeedup float64 `json:"scoring_speedup"`
	// UpdateSpeedup: per-decision imitation update (scoring + gradient
	// step), minibatch-16 schedule vs the historical one-Adam-step-per-
	// decision path — the headline policy-scoring speedup of this change.
	UpdateSpeedup float64        `json:"update_speedup"`
	Micro         []nnBenchMicro `json:"micro"`
}

// nnFillFeatures writes deterministic pseudo-features; identical values
// go through every variant so only the engine differs.
func nnFillFeatures(dst []float64, decision, cand int) {
	for k := range dst {
		dst[k] = float64((decision*31+cand*7+k*13)%97) / 97
	}
}

func nnMicro(name string, f func(b *testing.B)) nnBenchMicro {
	r := testing.Benchmark(f)
	return nnBenchMicro{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// runNNBench profiles the MLF-RL policy engine — the end-to-end sweep
// plus the per-decision micro paths — and writes BENCH_nn.json.
func runNNBench(path string, baselineWall float64) error {
	report := nnBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}

	// Headline: the MLF-RL slice of the Figure-4 sweep, end to end.
	base := mlfs.Options{Seed: 1, SchedOpts: mlfs.SchedulerOptions{Seed: 1}, Preset: mlfs.PaperReal}
	counts := []int{155, 310}
	start := time.Now()
	fig, err := mlfs.Figure4(mlfs.FigAvgJCT, []string{"mlf-rl"}, counts, base)
	if err != nil {
		return err
	}
	hl := &nnBenchHeadline{
		Benchmark:   "mlf-rl Figure-4 sweep (155, 310 jobs)",
		WallSeconds: time.Since(start).Seconds(),
	}
	for _, s := range fig.Series {
		if s.Label == "mlf-rl" && len(s.Points) > 0 {
			hl.MLFRLAvgJCTMin = s.Points[len(s.Points)-1].Y
		}
	}
	if baselineWall > 0 {
		hl.BaselineWallSecs = baselineWall
		hl.Speedup = baselineWall / hl.WallSeconds
	}
	report.Headline = hl
	fmt.Printf("nnbench headline     %.2fs wall (baseline %.2fs, %.2fx)  mlf-rl avg JCT %.1f min\n",
		hl.WallSeconds, hl.BaselineWallSecs, hl.Speedup, hl.MLFRLAvgJCTMin)

	// Micro paths, all at the MLF-RL decision shape. "reference" is the
	// historical per-candidate implementation, preserved verbatim behind
	// Policy.SetReference.
	newPolicy := func(reference bool) *nn.Policy {
		p := nn.NewPolicy(18, []int{32, 16}, 3e-4, 1)
		p.SetReference(reference)
		return p
	}
	report.Micro = append(report.Micro,
		nnMicro("scoring/reference", func(b *testing.B) {
			p := newPolicy(true)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cands := make([][]float64, 16)
				for c := range cands {
					f := make([]float64, 18)
					nnFillFeatures(f, i, c)
					cands[c] = f
				}
				p.Probs(cands)
			}
		}),
		nnMicro("scoring/batched", func(b *testing.B) {
			p := newPolicy(false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := p.Candidates(16)
				for c := 0; c < 16; c++ {
					nnFillFeatures(x.Row(c), i, c)
				}
				p.ProbsBatch(x)
			}
		}),
		nnMicro("imitation/reference", func(b *testing.B) {
			p := newPolicy(true)
			cands := make([][]float64, 16)
			for c := range cands {
				cands[c] = make([]float64, 18)
				nnFillFeatures(cands[c], 0, c)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Imitate(cands, i%16)
			}
		}),
		nnMicro("imitation/batched", func(b *testing.B) {
			p := newPolicy(false)
			x := p.Candidates(16)
			for c := 0; c < 16; c++ {
				nnFillFeatures(x.Row(c), 0, c)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ImitateBatch(x, i%16)
			}
		}),
		nnMicro("imitation/minibatch16", func(b *testing.B) {
			p := newPolicy(false)
			x := p.Candidates(16)
			for c := 0; c < 16; c++ {
				nnFillFeatures(x.Row(c), 0, c)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.AccumImitate(x, i%16)
				if p.Accumulated() == 16 {
					p.Step()
				}
			}
		}),
	)
	byName := make(map[string]nnBenchMicro, len(report.Micro))
	for _, m := range report.Micro {
		byName[m.Name] = m
		fmt.Printf("nnbench %-22s %9.0f ns/decision  %4d allocs\n", m.Name, m.NsPerOp, m.AllocsPerOp)
	}
	if b := byName["scoring/batched"].NsPerOp; b > 0 {
		report.ScoringSpeedup = byName["scoring/reference"].NsPerOp / b
	}
	if b := byName["imitation/minibatch16"].NsPerOp; b > 0 {
		report.UpdateSpeedup = byName["imitation/reference"].NsPerOp / b
	}
	fmt.Printf("nnbench scoring speedup %.2fx, per-decision update speedup %.2fx\n",
		report.ScoringSpeedup, report.UpdateSpeedup)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%-10s -> %s\n", "nnbench", path)
	return nil
}
