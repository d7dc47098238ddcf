// Package trace generates and serialises synthetic DNN-training workload
// traces calibrated to the published statistics of the Microsoft Philly
// trace the paper drives its evaluation with (§4.1): 117,325 jobs over 18
// weeks on 550 servers / 2474 GPUs, GPU demands in {1,2,4,8,16,32} skewed
// toward small jobs, a CNN/LSTM/RNN mix, and per-job accuracy targets
// taken from the job completion status.
//
// The real trace is a substituted dependency (see DESIGN.md): the
// scheduler consumes only (arrival time, GPUs requested, accuracy target,
// iteration budget), all of which this generator reproduces
// distributionally and deterministically under a fixed seed.
//
// Determinism: generation draws every sample from one rand.Rand seeded
// by GenConfig.Seed in a fixed order, and CSV round-trips preserve
// workloads exactly. The package is enrolled in the lint
// DeterministicPaths registry (mapiter, noclock, sharedcapture), plus
// the repo-wide epochguard, floatcmp and pkgdoc checks.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"mlfs/internal/job"
	"mlfs/internal/learncurve"
	"mlfs/internal/snapshot"
)

// Record is one job submission in a trace. TargetFrac expresses the
// accuracy requirement as a fraction of the job's attainable maximum, so
// targets remain meaningful whatever curve is sampled at materialisation.
type Record struct {
	JobID            int64
	ArrivalSec       float64
	GPUs             int
	Family           learncurve.Family
	Comm             job.CommStructure
	Urgency          int
	TargetFrac       float64
	TrainDataMB      float64
	CommVolPS        float64 // MB per worker->PS transfer (§4.1: U[50,100])
	CommVolWW        float64 // MB per worker->worker transfer
	DeadlineSlackSec float64 // the random deadline component t_r (U[0.5,24]h)
	StopOption       learncurve.StopOption
	AllowDowngrade   bool
	Seed             int64 // per-job randomness for curve sampling
}

// Trace is an ordered set of job submissions.
type Trace struct {
	Records     []Record
	DurationSec float64
}

// GenConfig controls Generate.
type GenConfig struct {
	Jobs        int
	DurationSec float64 // default: one week
	Seed        int64
	// UrgencyLevels is m; urgency is drawn from [1, m]. Default 10.
	UrgencyLevels int
	// PSFraction is the fraction of jobs using a parameter server rather
	// than all-reduce. Default 0.6.
	PSFraction float64
	// StopOptionWeights gives the probability of user options i/ii/iii
	// (§3.5). Default {0.5, 0.3, 0.2}.
	StopOptionWeights [3]float64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.DurationSec <= 0 {
		c.DurationSec = 7 * 24 * 3600
	}
	if c.UrgencyLevels <= 0 {
		c.UrgencyLevels = 10
	}
	if c.PSFraction <= 0 {
		c.PSFraction = 0.6
	}
	if c.StopOptionWeights == ([3]float64{}) {
		c.StopOptionWeights = [3]float64{0.5, 0.3, 0.2}
	}
	return c
}

// gpuDist is the Philly-like skew toward small jobs.
var gpuDist = []struct {
	gpus int
	p    float64
}{
	{1, 0.50}, {2, 0.20}, {4, 0.12}, {8, 0.10}, {16, 0.05}, {32, 0.03},
}

// familyDist mirrors the paper's mixed workload (CNN-heavy, §4.1).
var familyDist = []struct {
	f learncurve.Family
	p float64
}{
	{learncurve.AlexNet, 0.20},
	{learncurve.ResNet, 0.30},
	{learncurve.MLP, 0.15},
	{learncurve.LSTM, 0.25},
	{learncurve.SVM, 0.10},
}

func sampleGPUs(rng *rand.Rand) int {
	x := rng.Float64()
	for _, e := range gpuDist {
		if x < e.p {
			return e.gpus
		}
		x -= e.p
	}
	return gpuDist[len(gpuDist)-1].gpus
}

func sampleFamily(rng *rand.Rand) learncurve.Family {
	x := rng.Float64()
	for _, e := range familyDist {
		if x < e.p {
			return e.f
		}
		x -= e.p
	}
	return familyDist[len(familyDist)-1].f
}

// Generate builds a deterministic synthetic trace. Arrivals follow a
// diurnal nonhomogeneous Poisson process: intensity
// 1 + 0.5·sin(2πt/day), sampled by rejection, then sorted.
func Generate(cfg GenConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(snapshot.NewSource(cfg.Seed))
	const day = 24 * 3600.0
	arrivals := make([]float64, 0, cfg.Jobs)
	for len(arrivals) < cfg.Jobs {
		t := rng.Float64() * cfg.DurationSec
		intensity := 1 + float64(0.5*math.Sin(2*math.Pi*t/day))
		if rng.Float64()*1.5 < intensity {
			arrivals = append(arrivals, t)
		}
	}
	sort.Float64s(arrivals)

	tr := &Trace{DurationSec: cfg.DurationSec}
	for i := 0; i < cfg.Jobs; i++ {
		tr.Records = append(tr.Records, SampleRecord(rng, cfg, int64(i+1), arrivals[i]))
	}
	return tr
}

// SampleRecord draws one job record's workload fields from rng with the
// distributions of §4.1, stamping the given id and arrival. Generate
// samples all records from a single sequential stream; streaming
// generators (internal/philly's synthetic Philly-scale source) call it
// with an independent per-record stream instead, so record i is a pure
// function of (seed, i) and a trace never needs materialising. The draw
// order is part of Generate's determinism contract — do not reorder.
func SampleRecord(rng *rand.Rand, cfg GenConfig, id int64, arrivalSec float64) Record {
	cfg = cfg.withDefaults()
	fam := sampleFamily(rng)
	comm := job.AllReduce
	if rng.Float64() < cfg.PSFraction {
		comm = job.ParameterServer
	}
	var opt learncurve.StopOption
	x := rng.Float64()
	switch {
	case x < cfg.StopOptionWeights[0]:
		opt = learncurve.RunToMaxIterations
	case x < cfg.StopOptionWeights[0]+cfg.StopOptionWeights[1]:
		opt = learncurve.OptStop
	default:
		opt = learncurve.StopAtTarget
	}
	return Record{
		JobID:            id,
		ArrivalSec:       arrivalSec,
		GPUs:             sampleGPUs(rng),
		Family:           fam,
		Comm:             comm,
		Urgency:          1 + rng.Intn(cfg.UrgencyLevels),
		TargetFrac:       0.70 + float64(0.22*rng.Float64()),
		TrainDataMB:      100 + float64(900*rng.Float64()), // §4.1: U[100,1000] MB
		CommVolPS:        50 + float64(50*rng.Float64()),   // §4.1: U[50,100] MB
		CommVolWW:        50 + float64(50*rng.Float64()),
		DeadlineSlackSec: (0.5 + float64(23.5*rng.Float64())) * 3600, // §4.1: U[0.5,24] h
		StopOption:       opt,
		AllowDowngrade:   rng.Float64() < 0.8,
		Seed:             rng.Int63(),
	}
}

// Materialize converts a record into a runnable job. The per-record seed
// makes curve sampling deterministic. nextID supplies cluster-unique task
// ids, exactly as job.Build requires.
func Materialize(r Record, nextID *job.TaskID) (*job.Job, error) {
	rng := rand.New(snapshot.NewSource(r.Seed))
	curve, iters, iterSec := r.Family.Sample(rng)
	curve.Seed(r.Seed ^ 0x7f4a7c159e3779b9)

	d, p := 1, r.GPUs
	if !r.Family.ModelParallel() {
		d, p = r.GPUs, 1
	} else if r.GPUs >= 8 && rng.Float64() < 0.5 {
		// Mixed data+model parallelism for large jobs: split the GPUs.
		d, p = 2, r.GPUs/2
	}
	// Scale compute with the training data size (bigger mini-batch epochs).
	iterSec *= 0.5 + r.TrainDataMB/1000

	topo := job.Ring
	if r.Comm == job.AllReduce && rng.Float64() < 0.3 {
		topo = job.Torus2D
	}
	spec := job.Spec{
		Topology:       topo,
		ID:             job.ID(r.JobID),
		Name:           fmt.Sprintf("%s-%d", r.Family, r.JobID),
		Family:         r.Family,
		Comm:           r.Comm,
		Urgency:        r.Urgency,
		Arrival:        r.ArrivalSec,
		AccuracyTarget: curve.AccMax * r.TargetFrac,
		Curve:          curve,
		MaxIterations:  iters,
		DataParallel:   d,
		ModelParallel:  p,
		TotalParams:    10 + float64(200*rng.Float64()),
		TrainDataMB:    r.TrainDataMB,
		IterSec:        iterSec,
		CommVolPS:      r.CommVolPS,
		CommVolWW:      r.CommVolWW,
		StopOption:     r.StopOption,
		AllowDowngrade: r.AllowDowngrade,
		MemPerTask:     4 + float64(12*rng.Float64()),
	}
	j, err := job.Build(spec, nextID)
	if err != nil {
		return nil, err
	}
	j.EstimateRuntime()
	// Paper §4.1: deadline = max{1.1·t_e, t_r}.
	j.Deadline = r.ArrivalSec + math.Max(1.1*j.EstimatedRuntime, r.DeadlineSlackSec)
	return j, nil
}

var csvHeader = []string{
	"job_id", "arrival_sec", "gpus", "family", "comm", "urgency",
	"target_frac", "train_data_mb", "comm_vol_ps", "comm_vol_ww",
	"deadline_slack_sec", "stop_option", "allow_downgrade", "seed",
}

// WriteCSV serialises the trace.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, r := range t.Records {
		row := []string{
			strconv.FormatInt(r.JobID, 10),
			f(r.ArrivalSec),
			strconv.Itoa(r.GPUs),
			r.Family.String(),
			r.Comm.String(),
			strconv.Itoa(r.Urgency),
			f(r.TargetFrac),
			f(r.TrainDataMB),
			f(r.CommVolPS),
			f(r.CommVolWW),
			f(r.DeadlineSlackSec),
			strconv.Itoa(int(r.StopOption)),
			strconv.FormatBool(r.AllowDowngrade),
			strconv.FormatInt(r.Seed, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty file")
	}
	if len(rows[0]) != len(csvHeader) {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(rows[0]), len(csvHeader))
	}
	tr := &Trace{}
	for i, row := range rows[1:] {
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+2, err)
		}
		tr.Records = append(tr.Records, rec)
		if rec.ArrivalSec > tr.DurationSec {
			tr.DurationSec = rec.ArrivalSec
		}
	}
	return tr, nil
}

func parseRow(row []string) (Record, error) {
	var r Record
	if len(row) != len(csvHeader) {
		return r, fmt.Errorf("%d columns, want %d", len(row), len(csvHeader))
	}
	var err error
	geti := func(s string) int {
		if err != nil {
			return 0
		}
		var v int
		v, err = strconv.Atoi(s)
		return v
	}
	getf := func(s string) float64 {
		if err != nil {
			return 0
		}
		var v float64
		v, err = strconv.ParseFloat(s, 64)
		return v
	}
	r.JobID = int64(geti(row[0]))
	r.ArrivalSec = getf(row[1])
	r.GPUs = geti(row[2])
	fam, ok := learncurve.ParseFamily(row[3])
	if !ok {
		return r, fmt.Errorf("unknown family %q", row[3])
	}
	r.Family = fam
	switch row[4] {
	case "ps":
		r.Comm = job.ParameterServer
	case "allreduce":
		r.Comm = job.AllReduce
	default:
		return r, fmt.Errorf("unknown comm %q", row[4])
	}
	r.Urgency = geti(row[5])
	r.TargetFrac = getf(row[6])
	r.TrainDataMB = getf(row[7])
	r.CommVolPS = getf(row[8])
	r.CommVolWW = getf(row[9])
	r.DeadlineSlackSec = getf(row[10])
	r.StopOption = learncurve.StopOption(geti(row[11]))
	switch row[12] {
	case "true":
		r.AllowDowngrade = true
	case "false":
		r.AllowDowngrade = false
	default:
		return r, fmt.Errorf("bad bool %q", row[12])
	}
	if err == nil {
		var s int64
		s, err = strconv.ParseInt(row[13], 10, 64)
		r.Seed = s
	}
	if err != nil {
		return r, err
	}
	return r, r.Validate()
}

// Validate rejects a record no submission can carry: a negative or
// non-finite arrival, target fraction, data size, communication volume
// or deadline slack, a negative GPU count or urgency, or an unknown
// model family. Such values feed the cost model unchecked — a negative
// communication volume makes a job whose iterations never finish,
// holding its GPUs to the horizon, and an unknown family indexes past
// the family table at materialisation.
func (r Record) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"arrival_sec", r.ArrivalSec},
		{"target_frac", r.TargetFrac},
		{"train_data_mb", r.TrainDataMB},
		{"comm_vol_ps", r.CommVolPS},
		{"comm_vol_ww", r.CommVolWW},
		{"deadline_slack_sec", r.DeadlineSlackSec},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %v: want a finite value >= 0", f.name, f.v)
		}
	}
	if r.GPUs < 0 || r.Urgency < 0 {
		return fmt.Errorf("gpus %d, urgency %d: want values >= 0", r.GPUs, r.Urgency)
	}
	if r.Family < 0 || r.Family >= learncurve.NumFamilies {
		return fmt.Errorf("family %d: unknown", r.Family)
	}
	return nil
}
