package mlfs

import (
	"fmt"
	"runtime"
	"sync"
)

// SweepPoint is one parameter setting and its outcome.
type SweepPoint struct {
	Value  float64
	Result *Result
}

// Sweep runs one scheduler (base.Scheduler, default MLF-H) across values
// of one named parameter, holding the workload fixed — the sensitivity
// studies DESIGN.md calls out for the design choices α, γ, p_s and h_r
// (the paper discusses each knob's trade-off in §3.3 and leaves
// sensitivity as future work).
//
// Supported parameters: "alpha", "gamma", "gamma_d", "gamma_r", "gamma_w",
// "ps", "hr", "hs". The priority weights and p_s configure MLF-H, so they
// reach mlf-h, mlf-rl and mlfs (which are built on it) and no baseline;
// h_r is the overload threshold every scheduler sees; h_s is read only
// by MLF-C, so only an mlfs sweep moves with it.
//
// Sweep points are independent simulations over a shared workload, so
// they execute in parallel across CPUs (mirroring Compare); each run is
// internally deterministic and results come back in value order, so the
// output is reproducible regardless of parallelism.
func Sweep(param string, values []float64, base Options) ([]SweepPoint, error) {
	if base.Jobs <= 0 && base.Trace == nil {
		return nil, fmt.Errorf("mlfs: sweep needs a workload")
	}
	if base.Trace == nil {
		base.Trace = GenerateTrace(base.Jobs, base.Seed, DefaultTraceDuration(base.Jobs))
	}
	if base.Scheduler == "" {
		base.Scheduler = "mlf-h"
	}
	type cell struct {
		res *Result
		err error
	}
	cells := make([]cell, len(values))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, v := range values {
		opts := base
		opts.Sched = nil
		switch param {
		case "alpha":
			opts.SchedOpts.Alpha = v
		case "gamma":
			opts.SchedOpts.Gamma = v
		case "gamma_d":
			opts.SchedOpts.GammaD = v
		case "gamma_r":
			opts.SchedOpts.GammaR = v
		case "gamma_w":
			opts.SchedOpts.GammaW = v
		case "ps":
			opts.SchedOpts.PSFraction = v
		case "hr":
			opts.HR = v
		case "hs":
			opts.HS = v
		default:
			return nil, fmt.Errorf("mlfs: unknown sweep parameter %q", param)
		}
		wg.Add(1)
		go func(i int, v float64, opts Options) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := Run(opts)
			if err != nil {
				err = fmt.Errorf("mlfs: sweep %s=%v: %w", param, v, err)
			}
			cells[i] = cell{res, err}
		}(i, v, opts)
	}
	wg.Wait()
	out := make([]SweepPoint, 0, len(values))
	for i, v := range values {
		if cells[i].err != nil {
			return nil, cells[i].err
		}
		out = append(out, SweepPoint{Value: v, Result: cells[i].res})
	}
	return out, nil
}
