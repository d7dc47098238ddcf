package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/learncurve"
	"mlfs/internal/philly"
	"mlfs/internal/sched"
	"mlfs/internal/sim"
	"mlfs/internal/trace"
)

// refMLFH is MLF-H before lazy fit checks, monotone distance pruning and
// the maintained underloaded set: Schedule, placeQueue, ChooseServer,
// relieveOverloads and SelectMigrationTask below are the historical
// bodies verbatim (every candidate fit-checked, every distance taken in
// full, Cluster.Underloaded rescanned before every migration, per-call
// maps and copies). It is the oracle MLFH must match bit for bit. It
// shares the priority machinery and the ablation switches of the
// embedded MLFH and keeps its own scratch.
type refMLFH struct {
	*MLFH
	scored  []scoredJob
	taskBuf []*job.Task
	fitBuf  []int
	commBuf []float64
	volBuf  []float64
}

func newRefMLFH(m *MLFH) *refMLFH { return &refMLFH{MLFH: m} }

// commVolumesInto is MLFH.commVolumes from scratch: every server's
// volume in vol (grown to the cluster size) is zeroed, then t's volumes
// are accumulated. The reference and the coverage classifier use it, so
// a stale entry MLFH.commVolumes failed to clear shows as a difference.
func commVolumesInto(ctx *sched.Context, t *job.Task, vol []float64) []float64 {
	n := ctx.Cluster.NumServers()
	if cap(vol) < n {
		vol = make([]float64, n)
	}
	vol = vol[:n]
	clear(vol)
	addCommVolumes(ctx, t, vol, nil)
	return vol
}

// Schedule implements sched.Scheduler.
func (m *refMLFH) Schedule(ctx *sched.Context) {
	prios := m.Priorities(ctx)
	m.placeQueue(ctx, prios)
	if !m.DisableMigration {
		m.relieveOverloads(ctx, prios)
		// Migrations may have freed space for still-queued tasks.
		if ctx.NumWaiting() > 0 {
			m.placeQueue(ctx, prios)
		}
	}
}

// placeQueue drains the waiting queue in priority order, gang-placing
// each job's queued tasks (§3.3.2: pick tasks one by one from the queue
// and assign to underloaded nodes until none remain).
func (m *refMLFH) placeQueue(ctx *sched.Context, prios *Priorities) {
	jobs := ctx.PendingJobs()
	// Order jobs by the maximum priority among their queued tasks; the
	// queue is task-ordered in the paper, and a job's highest-priority
	// task is what reaches the queue head.
	ranked := m.scored[:0]
	for _, j := range jobs {
		m.taskBuf = ctx.QueuedTasksInto(j, m.taskBuf[:0])
		// Pre-filter through the no-fit frontier: if any queued task of
		// the job provably cannot be hosted, its gang placement must
		// fail with zero side effects, so the job's ordering work is
		// skipped outright (bit-identical — see Context.GangHopeless).
		if len(m.taskBuf) == 0 || ctx.GangHopeless(m.taskBuf[0]) {
			continue
		}
		ranked = append(ranked, scoredJob{j, prios.JobOrder(m.taskBuf)})
	}
	m.scored = ranked
	sort.Sort(scoredJobs(ranked))
	for _, s := range ranked {
		// Within the gang, place higher-priority tasks first so they get
		// the best servers (priority orders the queue, §3.3.1). Sorting
		// by (priority desc, task id asc) reproduces the historical
		// priority-heap drain order exactly.
		tasks := ctx.QueuedTasksInto(s.j, m.taskBuf[:0])
		sort.SliceStable(tasks, func(i, k int) bool {
			pi, pk := prios.Of(tasks[i]), prios.Of(tasks[k])
			if pi != pk {
				return pi > pk
			}
			return tasks[i].ID < tasks[k].ID
		})
		m.taskBuf = tasks[:0]
		ctx.PlaceGang(tasks, m.ChooseServer)
	}
}

// ChooseServer is the RIAL-style ideal-virtual-server selection of
// §3.3.2: build the ideal vector (per-resource minima over underloaded
// servers, maximal task communication affinity, zero movement
// degradation) and pick the candidate closest to it that fits.
func (m *refMLFH) ChooseServer(ctx *sched.Context, t *job.Task, candidates []int) (int, int, bool) {
	// Ideal utilisation components: minimum across candidates.
	var ideal cluster.Vec
	for r := range ideal {
		ideal[r] = math.Inf(1)
	}
	fit := m.fitBuf[:0]
	for _, si := range candidates {
		s := ctx.Cluster.Server(si)
		dev := s.LeastLoadedDevice()
		if !ctx.Cluster.Fits(si, dev.ID(), t.Demand, t.GPUShare, ctx.HR) {
			continue
		}
		fit = append(fit, si)
		u := s.Utilization()
		for r := range ideal {
			if u[r] < ideal[r] {
				ideal[r] = u[r]
			}
		}
	}
	m.fitBuf = fit
	if len(fit) == 0 {
		return 0, 0, false
	}
	// Communication affinity: ideal is the maximum volume any candidate
	// offers.
	if cap(m.commBuf) < len(fit) {
		m.commBuf = make([]float64, len(fit))
	}
	comms := m.commBuf[:len(fit)]
	for i := range comms {
		comms[i] = 0
	}
	var maxComm float64
	if !m.DisableBandwidth {
		m.volBuf = commVolumesInto(ctx, t, m.volBuf)
		for i, si := range fit {
			comms[i] = m.volBuf[si]
			if comms[i] > maxComm {
				maxComm = comms[i]
			}
		}
	}
	bwWeight := m.BWWeight
	if bwWeight <= 0 {
		bwWeight = 2
	}
	best, bestDist := -1, math.Inf(1)
	for i, si := range fit {
		u := ctx.Cluster.Server(si).Utilization()
		d := u.Distance(ideal)
		if maxComm > 0 {
			// Extra dimension: distance from the ideal (max) affinity.
			gap := bwWeight * (maxComm - comms[i]) / maxComm
			d = math.Sqrt(d*d + gap*gap)
		}
		// Movement degradation q_{k,V} is zero for queue placements and
		// identical across destinations for migrations, so it does not
		// enter the distance here.
		if d < bestDist {
			best, bestDist = si, d
		}
	}
	return best, ctx.Cluster.Server(best).LeastLoadedDevice().ID(), true
}

// relieveOverloads walks the overloaded servers and moves out
// ideal-virtual-task selections until each is relieved (§3.3.3).
//
// Deviation from the paper, documented in DESIGN.md: when no underloaded
// destination exists the paper moves the victim back to the queue. Under
// this simulator's synchronous-training gang semantics an unplaced task
// stalls its whole job while the job's other tasks keep their GPUs, which
// is strictly harmful — so here victims stay put until a destination
// exists. The paper's per-task execution model tolerates requeueing.
func (m *refMLFH) relieveOverloads(ctx *sched.Context, prios *Priorities) {
	maxMig := m.MaxMigrationsPerServer
	if maxMig <= 0 {
		maxMig = 4
	}
	for _, si := range ctx.Cluster.Overloaded(ctx.HR) {
		tried := make(map[job.TaskID]bool)
		for moved := 0; moved < maxMig; moved++ {
			s := ctx.Cluster.Server(si)
			if !s.Overloaded(ctx.HR) {
				break
			}
			cand := ctx.Cluster.Underloaded(ctx.HR)
			if len(cand) == 0 {
				break
			}
			victim := m.SelectMigrationTask(ctx, prios, si)
			if victim == nil || tried[victim.ID] {
				break
			}
			tried[victim.ID] = true
			dst, dev, ok := m.ChooseServer(ctx, victim, cand)
			if !ok {
				break
			}
			if err := ctx.Migrate(victim, dst, dev); err != nil {
				break
			}
		}
	}
}

// SelectMigrationTask picks the task to move out of overloaded server si:
// the one closest to the ideal virtual task (max utilisation on
// overloaded resources, min on underloaded ones, zero communication with
// the server), restricted to the p_s lowest-priority tasks on overloaded
// GPUs when any GPU is overloaded (§3.3.3).
func (m *refMLFH) SelectMigrationTask(ctx *sched.Context, prios *Priorities, si int) *job.Task {
	s := ctx.Cluster.Server(si)
	placements := s.Tasks()
	if len(placements) == 0 {
		return nil
	}
	tasks := make([]*job.Task, 0, len(placements))
	byTask := make(map[job.TaskID]*cluster.Placement, len(placements))
	for _, p := range placements {
		t := ctx.TaskByRef(p.Task)
		if t == nil {
			continue
		}
		tasks = append(tasks, t)
		byTask[t.ID] = p
	}
	if len(tasks) == 0 {
		return nil
	}

	// Restrict to low-priority tasks on overloaded GPUs when present.
	var overDev []int
	for _, d := range s.Devices() {
		if d.Utilization() > ctx.HR {
			overDev = append(overDev, d.ID())
		}
	}
	candidates := tasks
	if len(overDev) > 0 {
		onOver := make([]*job.Task, 0, len(tasks))
		for _, t := range tasks {
			p := byTask[t.ID]
			for _, d := range overDev {
				if p.Device == d {
					onOver = append(onOver, t)
					break
				}
			}
		}
		if len(onOver) > 0 {
			sort.SliceStable(onOver, func(i, k int) bool {
				pi, pk := prios.Of(onOver[i]), prios.Of(onOver[k])
				if pi != pk {
					return pi < pk
				}
				return onOver[i].ID < onOver[k].ID
			})
			n := int(math.Ceil(m.PS * float64(len(onOver))))
			if n < 1 {
				n = 1
			}
			candidates = onOver[:n]
		}
	} else {
		// No overloaded GPU: all tasks are eligible but still prefer the
		// lowest-priority p_s fraction to protect accuracy and JCT.
		sorted := append([]*job.Task(nil), tasks...)
		sort.SliceStable(sorted, func(i, k int) bool {
			pi, pk := prios.Of(sorted[i]), prios.Of(sorted[k])
			if pi != pk {
				return pi < pk
			}
			return sorted[i].ID < sorted[k].ID
		})
		n := int(math.Ceil(m.PS * float64(len(sorted))))
		if n < 1 {
			n = 1
		}
		candidates = sorted[:n]
	}

	// Ideal virtual task vector (§3.3.3).
	over := map[cluster.Resource]bool{}
	for _, r := range s.OverloadedResources(ctx.HR) {
		over[r] = true
	}
	var ideal cluster.Vec
	for r := range ideal {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, t := range candidates {
			u := byTask[t.ID].Demand.Div(s.Capacity())
			if u[r] < lo {
				lo = u[r]
			}
			if u[r] > hi {
				hi = u[r]
			}
		}
		if over[cluster.Resource(r)] {
			ideal[r] = hi
		} else {
			ideal[r] = lo
		}
	}
	var best *job.Task
	bestDist := math.Inf(1)
	var maxComm float64
	comms := make(map[job.TaskID]float64, len(candidates))
	if !m.DisableBandwidth {
		for _, t := range candidates {
			v := CommVolumeWith(ctx, t, si)
			comms[t.ID] = v
			if v > maxComm {
				maxComm = v
			}
		}
	}
	for _, t := range candidates {
		u := byTask[t.ID].Demand.Div(s.Capacity())
		d := u.Distance(ideal)
		if maxComm > 0 {
			// u_BW,v = 0 is ideal: migrating a task that talks to this
			// server would add cross-server traffic.
			gap := comms[t.ID] / maxComm
			d = math.Sqrt(d*d + gap*gap)
		}
		//mlfs:allow floatcmp deliberate exact tie on the RIAL distance: equal bits fall through to the task-id tie-break for determinism
		if d < bestDist || (d == bestDist && (best == nil || t.ID < best.ID)) {
			best, bestDist = t, d
		}
	}
	return best
}

// refScenario builds a seeded random cluster for the differential tests:
// servers loaded from a small discrete menu of task shapes (so equal
// utilisations, and hence equal distances, are common), some servers
// down, overloaded ones among them, and jobs whose tasks are partly
// placed — giving candidates a communication affinity — and partly
// queued. Equal seeds build bit-identical scenarios.
func refScenario(t *testing.T, seed int64) (*sched.Context, []*job.Job) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(40)
	cl := cluster.New(cluster.Config{Servers: n, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	down := make([]bool, n)
	for i := range down {
		down[i] = rng.Float64() < 0.1
	}
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	var next job.TaskID
	var jobs []*job.Job
	var waiting []*job.Task
	for id := 1; id <= 3+rng.Intn(12); id++ {
		comm := job.AllReduce
		if rng.Intn(2) == 0 {
			comm = job.ParameterServer
		}
		j := buildJob(t, job.Spec{ID: job.ID(id), Family: learncurve.MLP, Comm: comm,
			DataParallel: 1 + rng.Intn(2), ModelParallel: 1 + rng.Intn(4), Urgency: 1 + rng.Intn(10),
			CommVolWW: pick(0, 50, 100), CommVolPS: pick(0, 80),
			GPUSharePerTask: pick(0.25, 0.5, 0.75), CPUPerTask: pick(1, 2, 4, 8, 12),
			MemPerTask: pick(4, 8, 16, 64), BWPerTask: pick(10, 50, 200)}, &next)
		j.SimSlot = id - 1
		jobs = append(jobs, j)
		for _, task := range j.Tasks {
			si := rng.Intn(n)
			if down[si] || rng.Float64() < 0.3 {
				waiting = append(waiting, task)
				continue
			}
			if err := cl.Place(task.ID.Ref(), si, rng.Intn(4), task.Demand, task.GPUShare); err != nil {
				t.Fatal(err)
			}
			j.PlacedTasks++
		}
	}
	for i, d := range down {
		if d {
			cl.FailServer(i)
		}
	}
	return sched.NewContext(3600, cl, jobs, waiting, 0.9, 0.9), jobs
}

// refCandidateLists returns the candidate lists ChooseServer is probed
// with: the underloaded set (the gang and relief paths), every server in
// index order (down and overloaded ones included) and a random subset
// in random order (MLF-RL hands over its own filtered, sorted subset).
func refCandidateLists(ctx *sched.Context, rng *rand.Rand) [][]int {
	n := ctx.Cluster.NumServers()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	perm := rng.Perm(n)
	return [][]int{ctx.Cluster.Underloaded(ctx.HR), all, perm[:rng.Intn(n+1)]}
}

// TestChooseServerMatchesReference requires the lazy-fit, pruned,
// early-exiting ChooseServer to return the reference's (server, device,
// ok) on seeded random clusters, with and without the bandwidth term,
// and the volumes it leaves in its scratch to equal a from-scratch
// computation. It fails unless the cases the exactness argument rests
// on, and every early exit, all occurred.
func TestChooseServerMatchesReference(t *testing.T) {
	var calls, found, bwOff int
	var cases refCases
	for seed := int64(1); seed <= 150; seed++ {
		ctx, jobs := refScenario(t, seed)
		rng := rand.New(rand.NewSource(-seed))
		for _, disableBW := range []bool{false, true} {
			for _, bw := range []float64{0, 0.5, 2} {
				m := NewMLFH()
				m.DisableBandwidth, m.BWWeight = disableBW, bw
				ref := newRefMLFH(NewMLFH())
				ref.DisableBandwidth, ref.BWWeight = disableBW, bw
				for _, j := range jobs {
					for _, task := range j.Tasks {
						for _, cand := range refCandidateLists(ctx, rng) {
							s, d, ok := m.ChooseServer(ctx, task, cand)
							rs, rd, rok := ref.ChooseServer(ctx, task, cand)
							if s != rs || d != rd || ok != rok {
								t.Fatalf("seed %d task %d bw-off=%v weight=%v candidates %v: got (%d,%d,%v), reference (%d,%d,%v)",
									seed, task.ID, disableBW, bw, cand, s, d, ok, rs, rd, rok)
							}
							if ok && !disableBW && !slices.Equal(m.volBuf, commVolumesInto(ctx, task, nil)) {
								t.Fatalf("seed %d task %d: volumes %v, from scratch %v", seed, task.ID, m.volBuf, commVolumesInto(ctx, task, nil))
							}
							calls++
							if ok {
								found++
							}
							if disableBW {
								bwOff++
							}
							cases.add(refCoverage(ctx, task, cand, m))
						}
					}
				}
			}
		}
	}
	t.Logf("%d calls, %d found, bandwidth off %d; %+v", calls, found, bwOff, cases)
	for name, n := range map[string]int{
		"found":                  found,
		"not found":              calls - found,
		"bandwidth off":          bwOff,
		"non-fitting minimiser":  cases.nonFitMin,
		"down candidate":         cases.down,
		"equal distance":         cases.equalUtil,
		"comm-heavy non-fitting": cases.heavyNonFit,
		"pass 1 stopping before the last candidate":                   cases.pass1Stop,
		"pass 3 stopping past the last nonzero volume":                cases.pastLastHost,
		"zero-volume candidate skipped by the bound":                  cases.boundSkip,
		"zero-volume candidate at the bound ahead of the idle winner": cases.tieAhead,
		"zero best without affinity":                                  cases.zeroBestNoComm,
	} {
		if n == 0 {
			t.Errorf("no call exercised the %s case", name)
		}
	}
}

// TestChooseServerReadsNoSettledCandidate hands ChooseServer, with the
// bandwidth term off, candidate lists whose tail past an idle fitting
// server is an out-of-range server index: the ideal is all zero there
// and so is the best distance, so both passes must stop before reading
// it, and the answer is the idle server.
func TestChooseServerReadsNoSettledCandidate(t *testing.T) {
	var next job.TaskID
	cl := cluster.New(cluster.Config{Servers: 3, GPUsPerServer: 4, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	j := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce, ModelParallel: 2}, &next)
	if err := cl.Place(j.Tasks[0].ID.Ref(), 0, 0, j.Tasks[0].Demand, j.Tasks[0].GPUShare); err != nil {
		t.Fatal(err)
	}
	j.PlacedTasks++
	ctx := sched.NewContext(0, cl, []*job.Job{j}, []*job.Task{j.Tasks[1]}, 0.9, 0.9)
	m := NewMLFH()
	m.DisableBandwidth = true
	poison := cl.NumServers()
	for _, c := range []struct {
		cand []int
		want int
	}{
		{[]int{1, poison}, 1},
		{[]int{0, 1, poison}, 1},
		{[]int{0, 2, poison, poison}, 2},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("candidates %v: read a candidate past the settled answer: %v", c.cand, r)
				}
			}()
			if s, _, ok := m.ChooseServer(ctx, j.Tasks[1], c.cand); !ok || s != c.want {
				t.Errorf("candidates %v: got server %d (ok %v), want the idle server %d", c.cand, s, ok, c.want)
			}
		}()
	}
}

// TestChooseServerBoundIsTight puts a communicating candidate one ulp
// above dG ahead of an idle zero-volume one at exactly dG: the idle
// server wins under the strict <, so a skip bound even one ulp looser
// than the loop's own expression would pick the wrong server.
func TestChooseServerBoundIsTight(t *testing.T) {
	var next job.TaskID
	cl := cluster.New(cluster.Config{Servers: 2, GPUsPerServer: 1, GPUCapacity: 1,
		CPUCapacity: 32, MemoryCapacity: 244, BWCapacity: 1200})
	j := buildJob(t, job.Spec{ID: 1, Family: learncurve.MLP, Comm: job.AllReduce, ModelParallel: 2,
		CommVolWW: 100, GPUSharePerTask: 0.25, CPUPerTask: 1, MemPerTask: 1, BWPerTask: 1}, &next)
	// Server 0's utilisation is (0.5+2⁻⁵³, 0, 0, 0): at the zero ideal
	// its distance is that value, one ulp above dG = 0.5 at weight 0.5.
	above := math.Nextafter(0.5, 1)
	if err := cl.Place(j.Tasks[0].ID.Ref(), 0, 0, cluster.Vec{above}, 0.1); err != nil {
		t.Fatal(err)
	}
	j.PlacedTasks++
	if d := cl.Server(0).Utilization().Distance(cluster.Vec{}); d != above {
		t.Fatalf("setup: server 0 at distance %v, want %v", d, above)
	}
	ctx := sched.NewContext(0, cl, []*job.Job{j}, []*job.Task{j.Tasks[1]}, 0.9, 0.9)
	m := NewMLFH()
	m.BWWeight = 0.5
	ref := newRefMLFH(NewMLFH())
	ref.BWWeight = 0.5
	s, _, ok := m.ChooseServer(ctx, j.Tasks[1], []int{0, 1})
	rs, _, rok := ref.ChooseServer(ctx, j.Tasks[1], []int{0, 1})
	if !ok || !rok || s != 1 || rs != 1 {
		t.Fatalf("got server %d (ok %v), reference %d (ok %v); want the idle server 1", s, ok, rs, rok)
	}
}

// refCases counts the calls that exercised each case the exactness
// argument of ChooseServer must survive, and each of its early exits.
type refCases struct {
	nonFitMin, down, equalUtil, heavyNonFit int
	// pass1Stop: the ideal over the fitting candidates is all zero
	// before the last candidate.
	pass1Stop int
	// pastLastHost: the best was within dG (the distance of a
	// zero-volume candidate at the ideal) before some candidate past
	// the last nonzero volume.
	pastLastHost int
	// boundSkip: a zero-volume candidate ahead of the last nonzero
	// volume came after the best was within dG.
	boundSkip int
	// tieAhead: the winner is a zero-volume candidate at exactly dG and
	// another zero-volume candidate at exactly dG precedes it.
	tieAhead int
	// zeroBestNoComm: no affinity dimension and a best at distance 0.
	zeroBestNoComm int
}

func (c *refCases) add(o refCases) {
	c.nonFitMin += o.nonFitMin
	c.down += o.down
	c.equalUtil += o.equalUtil
	c.heavyNonFit += o.heavyNonFit
	c.pass1Stop += o.pass1Stop
	c.pastLastHost += o.pastLastHost
	c.boundSkip += o.boundSkip
	c.tieAhead += o.tieAhead
	c.zeroBestNoComm += o.zeroBestNoComm
}

// refCoverage classifies one ChooseServer call of m by the cases the
// exactness argument must survive, replaying the reference's
// fit-filtered passes.
func refCoverage(ctx *sched.Context, task *job.Task, cand []int, m *MLFH) refCases {
	var c refCases
	fits := func(si int) bool {
		dev := ctx.Cluster.Server(si).LeastLoadedDevice()
		return ctx.Cluster.Fits(si, dev.ID(), task.Demand, task.GPUShare, ctx.HR)
	}
	var ideal cluster.Vec
	for r := range ideal {
		ideal[r] = math.Inf(1)
	}
	vol := commVolumesInto(ctx, task, nil)
	var maxFitVol float64
	var fitting []int
	for k, si := range cand {
		if !ctx.Cluster.Server(si).Up() {
			c.down = 1
		}
		if !fits(si) {
			continue
		}
		fitting = append(fitting, si)
		u := ctx.Cluster.Server(si).Utilization()
		for r := range ideal {
			ideal[r] = math.Min(ideal[r], u[r])
		}
		if ideal == (cluster.Vec{}) && k < len(cand)-1 {
			c.pass1Stop = 1
		}
		maxFitVol = math.Max(maxFitVol, vol[si])
	}
	if len(fitting) == 0 {
		return c
	}
	for _, si := range cand {
		if fits(si) {
			continue
		}
		if lowersAny(ctx.Cluster.Server(si).Utilization(), ideal) {
			c.nonFitMin = 1
		}
		if vol[si] > maxFitVol {
			c.heavyNonFit = 1
		}
	}
	for i, a := range fitting {
		for _, b := range fitting[i+1:] {
			if ctx.Cluster.Server(a).Utilization() == ctx.Cluster.Server(b).Utilization() && vol[a] == vol[b] {
				c.equalUtil = 1
			}
		}
	}

	// Pass 3 of the reference, with the affinity dimension as the
	// reference computes it.
	var maxComm float64
	if !m.DisableBandwidth {
		maxComm = maxFitVol
	}
	bw := m.BWWeight
	if bw <= 0 {
		bw = 2
	}
	dist := func(u cluster.Vec, v float64) float64 {
		d := u.Distance(ideal)
		if maxComm > 0 {
			gap := bw * (maxComm - v) / maxComm
			d = math.Sqrt(d*d + gap*gap)
		}
		return d
	}
	dG := dist(ideal, 0)
	zeroVol := func(si int) bool { return maxComm == 0 || vol[si] == 0 }
	lastHost := -1
	for i, si := range cand {
		if !zeroVol(si) {
			lastHost = i
		}
	}
	best, bestDist := -1, math.Inf(1)
	for i, si := range cand {
		if bestDist <= dG {
			switch {
			case i > lastHost && maxComm > 0:
				c.pastLastHost = 1
			case i <= lastHost && zeroVol(si):
				c.boundSkip = 1
			}
		}
		if d := dist(ctx.Cluster.Server(si).Utilization(), vol[si]); d < bestDist && fits(si) {
			best, bestDist = i, d
		}
	}
	if maxComm == 0 && bestDist == 0 {
		c.zeroBestNoComm = 1
	}
	if zeroVol(cand[best]) && bestDist == dG {
		for _, si := range cand[:best] {
			if zeroVol(si) && dist(ctx.Cluster.Server(si).Utilization(), vol[si]) == dG {
				c.tieAhead = 1
			}
		}
	}
	return c
}

// TestSelectMigrationTaskMatchesReference requires the allocation-free
// victim selection to pick the reference's task on every server of
// seeded random clusters, across p_s values and the bandwidth ablation.
func TestSelectMigrationTaskMatchesReference(t *testing.T) {
	var picks int
	for seed := int64(1); seed <= 150; seed++ {
		ctx, _ := refScenario(t, seed)
		prios := (&PriorityEngine{}).Compute(ctx, DefaultPriorityParams())
		for _, disableBW := range []bool{false, true} {
			for _, ps := range []float64{0.1, 0.5, 1} {
				m := NewMLFH()
				m.DisableBandwidth, m.PS = disableBW, ps
				ref := newRefMLFH(NewMLFH())
				ref.DisableBandwidth, ref.PS = disableBW, ps
				for si := 0; si < ctx.Cluster.NumServers(); si++ {
					got := m.SelectMigrationTask(ctx, prios, si)
					want := ref.SelectMigrationTask(ctx, prios, si)
					if got != want {
						t.Fatalf("seed %d server %d bw-off=%v ps=%v: got %v, reference %v", seed, si, disableBW, ps, got, want)
					}
					if got != nil {
						picks++
					}
				}
			}
		}
	}
	if picks == 0 {
		t.Fatal("no server had a victim")
	}
}

// TestRelieveOverloadsMatchesReference runs a relief round on two
// bit-identical seeded clusters, one with RelieveOverloads and one with
// the reference, and requires the same migrations: every task on the
// same (server, device), every server's load bits equal, and equal
// action counters.
func TestRelieveOverloadsMatchesReference(t *testing.T) {
	var migrations int
	for seed := int64(1); seed <= 150; seed++ {
		for _, maxMig := range []int{0, 1, 8} {
			for _, disableBW := range []bool{false, true} {
				ctx, jobs := refScenario(t, seed)
				refCtx, refJobs := refScenario(t, seed)
				m := NewMLFH()
				m.MaxMigrationsPerServer, m.DisableBandwidth = maxMig, disableBW
				ref := newRefMLFH(NewMLFH())
				ref.MaxMigrationsPerServer, ref.DisableBandwidth = maxMig, disableBW
				m.RelieveOverloads(ctx, m.Priorities(ctx), m.ChooseServer)
				ref.relieveOverloads(refCtx, (&PriorityEngine{}).Compute(refCtx, ref.Params))
				where := fmt.Sprintf("seed %d max %d bw-off=%v", seed, maxMig, disableBW)
				requireSameCluster(t, where, ctx, refCtx, jobs, refJobs)
				if ctx.Migrations != refCtx.Migrations || ctx.MigratedMB != refCtx.MigratedMB {
					t.Fatalf("%s: %d migrations (%v MB), reference %d (%v MB)", where,
						ctx.Migrations, ctx.MigratedMB, refCtx.Migrations, refCtx.MigratedMB)
				}
				migrations += ctx.Migrations
			}
		}
	}
	if migrations == 0 {
		t.Fatal("no relief round migrated anything")
	}
	t.Logf("%d migrations", migrations)
}

// requireSameCluster fails unless both clusters place every task alike
// and carry bit-identical server loads.
func requireSameCluster(t *testing.T, where string, a, b *sched.Context, aJobs, bJobs []*job.Job) {
	t.Helper()
	for i, j := range aJobs {
		for k, task := range j.Tasks {
			pa, pb := a.Cluster.Lookup(task.ID.Ref()), b.Cluster.Lookup(bJobs[i].Tasks[k].ID.Ref())
			if (pa == nil) != (pb == nil) || pa != nil && (pa.Server != pb.Server || pa.Device != pb.Device) {
				t.Fatalf("%s: task %d placed at %+v, reference %+v", where, task.ID, pa, pb)
			}
		}
	}
	for si := 0; si < a.Cluster.NumServers(); si++ {
		ua, ub := a.Cluster.Server(si).Used(), b.Cluster.Server(si).Used()
		for r := range ua {
			if math.Float64bits(ua[r]) != math.Float64bits(ub[r]) {
				t.Fatalf("%s: server %d load %v, reference %v", where, si, ua, ub)
			}
		}
	}
}

// TestMLFHRunsMatchReference requires equal Result JSON from full mlf-h
// runs on the paper's 550-server simulation cluster, with and without
// server failures: MLFH against the reference scheduler. The dense
// stream keeps the cluster saturated; the Philly-density one (the real
// trace's submission rate) leaves most servers idle, where the ideal
// becomes the zero vector and ChooseServer's passes stop early.
func TestMLFHRunsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("five full simulations")
	}
	const jobs = 400
	dense := func() trace.Source {
		return trace.NewSliceSource(trace.Generate(trace.GenConfig{Jobs: jobs, Seed: 5, DurationSec: 3600}))
	}
	// The real trace's density: 117,325 submissions in 18 weeks on
	// 2474 GPUs, which is the paper-sim cluster's size.
	const phillyJobs = 1000
	sparse := func() trace.Source {
		return philly.NewSynthetic(philly.SynthConfig{Jobs: phillyJobs, Seed: 5,
			DurationSec: phillyJobs * 18 * 7 * 24 * 3600.0 / 117_325})
	}
	for _, c := range []struct {
		name   string
		source func() trace.Source
		mttf   float64
	}{
		{"dense", dense, 0},
		{"dense-faults", dense, 4 * 3600},
		{"philly-density", sparse, 0},
	} {
		run := func(s sched.Scheduler) []byte {
			simulator, err := sim.New(sim.Config{
				Cluster:   cluster.PaperSimConfig(),
				Source:    c.source(),
				Scheduler: s,
				Failures:  sim.FailureConfig{MTTFSec: c.mttf, MTTRSec: 600, Seed: 7},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := simulator.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Migrations == 0 || c.mttf > 0 && res.Counters.ServerFailures == 0 {
				t.Fatalf("%s: vacuous run (%d migrations, %d failures)", c.name, res.Counters.Migrations, res.Counters.ServerFailures)
			}
			res.Counters.ZeroVolatile()
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if got, want := run(NewMLFH()), run(newRefMLFH(NewMLFH())); !bytes.Equal(got, want) {
			t.Fatalf("%s: Result differs from the reference run\n got %s\nwant %s", c.name, got, want)
		}
	}
}
