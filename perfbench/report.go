package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. The two tables
// below must match BENCHMARK.json (a test keeps them in step): every
// run prints every end-to-end metric, every traced run every per-layer
// one.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"avg_jct_min", "min"},
	{"deadline_ratio", "ratio"},
	{"decision_p50_ms", "ms"},
	{"goodput_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"philly.records", "count"},
	{"philly.next_busy_s", "s"},

	{"sim.steps", "count"},
	{"sim.sim_days", "days"},
	{"sim.step_busy_s", "s"},
	{"sim.self_s", "s"},
	{"sim.step_p50_us", "us"},
	{"sim.step_p99_us", "us"},
	{"sim.allocs_per_step", "count"},
	{"sim.alloc_kb_per_step", "KB"},
	{"sim.finish_ms", "ms"},

	{"sched.rounds", "count"},
	{"sched.busy_s", "s"},
	{"sched.skipped_rounds", "count"},
	{"sched.dirty_jobs", "count"},
	{"sched.placements", "count"},
	{"sched.migrations", "count"},
	{"sched.evictions", "count"},
	{"sched.useful_round_ratio", "ratio"},
	{"sched.round_p99_ms", "ms"},

	{"mlfrl.imitation_rounds", "count"},
	{"mlfrl.policy_rounds", "count"},
	{"mlfrl.imitation_round_p50_ms", "ms"},
	{"mlfrl.policy_round_p50_ms", "ms"},
	{"mlfrl.policy_round_p99_ms", "ms"},

	{"cluster.overload_server_ticks", "count"},
	{"cluster.bandwidth_gb", "GB"},
	{"cluster.migration_gb", "GB"},

	{"serve.recover_s", "s"},
	{"serve.ready_s", "s"},
	{"serve.ticks", "count"},
	{"serve.sched_busy_share", "ratio"},
	{"serve.round_p50_ms", "ms"},
	{"serve.sim_lag_s", "s"},
	{"serve.submit_handler_p50_ms", "ms"},
	{"serve.journal_bytes_per_submit", "B"},
	{"serve.snapshots", "count"},
	{"serve.snapshot_kb", "KB"},

	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.read_p50_ms", "ms"},
	{"loadgen.submit_p50_ms", "ms"},
	{"loadgen.submit_p99_ms", "ms"},
	{"loadgen.read_p99_ms", "ms"},

	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mb", "MB"},

	{"tracing.overhead_pct", "%"},
}

// latencyKeys names where each latency sample's p50 and p99 go. The
// request latencies and the p99s are per-layer figures: on a shared
// 2-vCPU host their run-to-run spread on serve-mixed is set by CPU
// steal, GC and fsync stalls of the single event loop more than by the
// program (see README.md).
var latencyKeys = map[string][2]string{
	"decision": {"decision_p50_ms", "sched.round_p99_ms"},
	"submit":   {"loadgen.submit_p50_ms", "loadgen.submit_p99_ms"},
	"read":     {"loadgen.read_p50_ms", "loadgen.read_p99_ms"},
}

// quantiles stores partQuantiles of xs under the keys of name and notes
// the smallest part.
func (o *outcome) quantiles(name string, xs []float64) {
	keys := latencyKeys[name]
	var least quantile
	o.values[keys[0]], o.values[keys[1]], least = partQuantiles(xs)
	o.samples[name+"_p99_smallest_part"] = least
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect picks the metrics of defs out of values. A missing or
// non-finite value is a benchmark bug and fails the run rather than
// printing a number nobody measured.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
