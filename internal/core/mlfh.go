package core

import (
	"math"
	"slices"
	"sort"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/sched"
)

// MLFH is the ML-feature-based heuristic task scheduler (§3.3). Each
// round it (1) recomputes task priorities from Eqs. 2–6, (2) places
// queued jobs in priority order onto RIAL-chosen servers, and (3)
// relieves overloaded servers by migrating ideal-virtual-task selections
// to underloaded servers (or back to the queue).
type MLFH struct {
	Params PriorityParams
	// PS is p_s, the fraction of lowest-priority tasks eligible for
	// migration when a GPU is overloaded (§3.3.3; default 0.10).
	PS float64
	// DisableBandwidth drops the communication term from placement and
	// migration choices (Fig 7 ablation).
	DisableBandwidth bool
	// DisableMigration turns off overload handling entirely (Fig 8
	// ablation).
	DisableMigration bool
	// MaxMigrationsPerServer bounds work per round (default 4).
	MaxMigrationsPerServer int
	// BWWeight scales the communication-affinity dimension of the RIAL
	// distance relative to the four utilisation dimensions (default 2):
	// co-locating a job's communicating tasks removes cross-server
	// traffic for every remaining iteration, so it outweighs a small
	// utilisation imbalance.
	BWWeight float64

	// eng computes the round's priorities (lazily built).
	eng *PriorityEngine //mlfs:derived rebuilt from scratch after restore

	// Round scratch, reused so steady-state rounds allocate nothing.
	scored   []scoredJob          //mlfs:derived scratch: priority-ordered pending jobs
	taskBuf  []*job.Task          //mlfs:derived scratch: one job's queued tasks
	fitState []fitState           //mlfs:derived scratch: per-candidate memo of the fit check
	volBuf   []float64            //mlfs:derived scratch: per-server communication volumes
	volHosts []int                //mlfs:derived scratch: the servers volBuf may be nonzero on
	overBuf  []int                //mlfs:derived scratch: the round's overloaded servers
	under    sched.UnderloadedSet //mlfs:derived scratch: the relief round's destinations
	tried    []job.TaskID         //mlfs:derived scratch: victims tried on one overloaded server
	plBuf    []*cluster.Placement //mlfs:derived scratch: one server's placements
	vicBuf   []victim             //mlfs:derived scratch: migration-victim candidates
	eligible []victim             //mlfs:derived scratch: priority-sorted migration-eligible victims
}

// fitState memoises Cluster.Fits for one candidate of one ChooseServer
// call: the check runs at most once, and only where it can change the
// answer.
type fitState uint8

const (
	fitUnknown fitState = iota
	fitNo
	fitYes
)

// victim is one migration candidate of SelectMigrationTask: a task on
// the overloaded server with its placement, its utilisation of the
// server and its communication volume with the server's other tasks.
type victim struct {
	t    *job.Task
	p    *cluster.Placement
	u    cluster.Vec
	comm float64
}

// sortVictims orders victims by (priority asc, task id asc), stably —
// the lowest priorities are the p_s fraction eligible for migration.
// The three-way comparator answers "less" exactly when the two-way
// one does, so the order is the one sort.SliceStable gave.
func sortVictims(vs []victim, prios *Priorities) {
	less := func(a, b victim) bool {
		pa, pb := prios.Of(a.t), prios.Of(b.t)
		if pa != pb {
			return pa < pb
		}
		return a.t.ID < b.t.ID
	}
	slices.SortStableFunc(vs, func(a, b victim) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// scoredJob pairs a job with its queue-ordering priority.
type scoredJob struct {
	j *job.Job
	p float64
}

// scoredJobs sorts by (priority desc, job id asc). The concrete
// sort.Interface keeps the per-round backlog sort off the reflection
// path of sort.Slice; job ids are unique, so the order is total and
// sort.Sort is deterministic without stability.
type scoredJobs []scoredJob

func (s scoredJobs) Len() int      { return len(s) }
func (s scoredJobs) Swap(i, k int) { s[i], s[k] = s[k], s[i] }
func (s scoredJobs) Less(i, k int) bool {
	if s[i].p != s[k].p {
		return s[i].p > s[k].p
	}
	return s[i].j.ID < s[k].j.ID
}

// NewMLFH returns an MLF-H scheduler with the paper's defaults.
func NewMLFH() *MLFH {
	return &MLFH{Params: DefaultPriorityParams(), PS: 0.10, MaxMigrationsPerServer: 4, BWWeight: 2}
}

// Name implements sched.Scheduler.
func (m *MLFH) Name() string { return "mlf-h" }

// Dirty implements sched.Incremental: journalled jobs drop their cached
// priority components so the next round recomputes them.
func (m *MLFH) Dirty(jobs []*job.Job) {
	if m.eng != nil {
		m.eng.Dirty(jobs)
	}
}

// Priorities computes the round's task priorities (Eqs. 2–6) through
// the scheduler's slot-cached engine.
func (m *MLFH) Priorities(ctx *sched.Context) *Priorities {
	if m.eng == nil {
		m.eng = &PriorityEngine{}
	}
	return m.eng.Compute(ctx, m.Params)
}

// Schedule implements sched.Scheduler.
func (m *MLFH) Schedule(ctx *sched.Context) {
	prios := m.Priorities(ctx)
	m.PlaceQueue(ctx, prios, m.ChooseServer)
	if !m.DisableMigration {
		m.RelieveOverloads(ctx, prios, m.ChooseServer)
		// Migrations may have freed space for still-queued tasks.
		if ctx.NumWaiting() > 0 {
			m.PlaceQueue(ctx, prios, m.ChooseServer)
		}
	}
}

// PlaceQueue drains the waiting queue in priority order, gang-placing
// each job's queued tasks onto the servers choose picks (§3.3.2: pick
// tasks one by one from the queue and assign to underloaded nodes until
// none remain). MLF-H passes its RIAL ChooseServer; MLF-RL passes its
// policy.
func (m *MLFH) PlaceQueue(ctx *sched.Context, prios *Priorities, choose sched.ServerChooser) {
	jobs := ctx.PendingJobs()
	// Order jobs by the maximum priority among their queued tasks; the
	// queue is task-ordered in the paper, and a job's highest-priority
	// task is what reaches the queue head.
	ranked := m.scored[:0]
	for _, j := range jobs {
		m.taskBuf = ctx.QueuedTasksInto(j, m.taskBuf[:0])
		// Pre-filter through the no-fit frontier: if the job's first
		// queued task provably cannot be hosted, its gang placement
		// must fail, so its ordering work and its attempt are skipped
		// (see Context.GangHopeless for how a skip can differ from an
		// attempt in the last bit).
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
		ctx.PlaceGang(tasks, choose)
	}
}

// CommVolumeWith returns the per-iteration communication volume between
// task t and the tasks currently placed on server si (u_BW of §3.3.2):
// co-locating heavy communicators saves bandwidth. Besides direct DAG
// edges, same-job tasks attract each other with the parameter-
// synchronisation volume they exchange: all-reduce members form a ring,
// and PS-structure workers funnel into the same parameter server, so
// packing a job together always removes cross-server traffic.
func CommVolumeWith(ctx *sched.Context, t *job.Task, si int) float64 {
	var vol float64
	j := t.Job
	onServer := func(other *job.Task) bool {
		p := ctx.Cluster.Lookup(other.ID.Ref())
		return p != nil && p.Server == si
	}
	for _, pi := range t.Parents() {
		if onServer(j.Tasks[pi]) {
			if t.IsPS {
				vol += j.CommVolPS
			} else {
				vol += j.CommVolWW
			}
		}
	}
	for _, ci := range t.Children() {
		child := j.Tasks[ci]
		if onServer(child) {
			if child.IsPS {
				vol += j.CommVolPS
			} else {
				vol += j.CommVolWW
			}
		}
	}
	// Parameter-synchronisation affinity for same-job tasks without a
	// direct edge (same-stage siblings, other replicas).
	syncVol := 0.5 * j.CommVolWW
	if j.Comm == job.ParameterServer {
		syncVol = 0.25 * j.CommVolPS
	}
	for _, other := range j.Tasks {
		if other == t || taskAdjacent(t, other.Index) {
			continue
		}
		if onServer(other) {
			vol += syncVol
		}
	}
	return vol
}

// taskAdjacent reports whether task index idx is a direct parent or
// child of t. Edge lists are bounded by the job's stage fan-out (a
// handful of entries), so a linear scan beats building a set — this
// runs once per sibling inside every communication-volume query and
// must not allocate.
func taskAdjacent(t *job.Task, idx int) bool {
	for _, pi := range t.Parents() {
		if pi == idx {
			return true
		}
	}
	for _, ci := range t.Children() {
		if ci == idx {
			return true
		}
	}
	return false
}

// commVolumes computes CommVolumeWith(ctx, t, si) for every server
// at once into m.volBuf (sized to the cluster). The per-candidate form
// resolves every adjacent task's placement through a cluster map lookup
// once per candidate server, which made ChooseServer dominate the
// scheduling-round profile at 550 servers; this form resolves each
// placement exactly once and accumulates its contribution on the server
// hosting it. Only the entries the previous call wrote (m.volHosts) can
// be nonzero, so only those are cleared first.
func (m *MLFH) commVolumes(ctx *sched.Context, t *job.Task) {
	if n := ctx.Cluster.NumServers(); len(m.volBuf) != n {
		m.volBuf, m.volHosts = make([]float64, n), m.volHosts[:0]
	}
	for _, si := range m.volHosts {
		m.volBuf[si] = 0
	}
	m.volHosts = addCommVolumes(ctx, t, m.volBuf, m.volHosts[:0])
}

// addCommVolumes adds t's communication volume with every placed task
// of its job onto the entry of the server hosting that task, appending
// each server it writes to hosts. Per-server additions happen in the
// same term order as CommVolumeWith's sum (parents, then children, then
// sync-affinity siblings), so on a zeroed vol the results are
// bit-identical to calling CommVolumeWith per server.
func addCommVolumes(ctx *sched.Context, t *job.Task, vol []float64, hosts []int) []int {
	j := t.Job
	add := func(other *job.Task, v float64) {
		if p := ctx.Cluster.Lookup(other.ID.Ref()); p != nil {
			vol[p.Server] += v
			hosts = append(hosts, p.Server)
		}
	}
	for _, pi := range t.Parents() {
		if t.IsPS {
			add(j.Tasks[pi], j.CommVolPS)
		} else {
			add(j.Tasks[pi], j.CommVolWW)
		}
	}
	for _, ci := range t.Children() {
		child := j.Tasks[ci]
		if child.IsPS {
			add(child, j.CommVolPS)
		} else {
			add(child, j.CommVolWW)
		}
	}
	syncVol := 0.5 * j.CommVolWW
	if j.Comm == job.ParameterServer {
		syncVol = 0.25 * j.CommVolPS
	}
	for _, other := range j.Tasks {
		if other == t || taskAdjacent(t, other.Index) {
			continue
		}
		add(other, syncVol)
	}
	return hosts
}

// ChooseServer is the RIAL-style ideal-virtual-server selection of
// §3.3.2: build the ideal vector (per-resource minima over fitting
// candidates, maximal task communication affinity, zero movement
// degradation) and pick the first candidate, in candidate order,
// closest to it that fits.
//
// Each pass walks the candidates in order but checks Cluster.Fits only
// where the answer can change (DESIGN.md, "Lazy fit checks"): pass 1
// for a candidate that would lower some component of the running
// ideal, pass 2 for one that would raise the running maximum volume,
// pass 3 for one whose distance beats the running best. A non-fitting
// candidate never contributes, so each pass ends where the full
// fit-filtered pass would. Pass 3 also skips both square roots of a
// candidate whose squared distance and affinity gap are no smaller than
// the best's: the distance is monotone in both, so it cannot win under
// the strict <.
//
// Passes 1 and 3 stop once their answer is settled. Utilisations are
// never negative, so an all-zero ideal is final. Every candidate with
// zero volume has the same gap, so its distance is at least dG, the
// distance at a zero squared distance: once the best is within dG such
// candidates are skipped unread, and past the last candidate with a
// nonzero volume (lastHost) the pass ends.
func (m *MLFH) ChooseServer(ctx *sched.Context, t *job.Task, candidates []int) (int, int, bool) {
	if cap(m.fitState) < len(candidates) {
		m.fitState = make([]fitState, len(candidates))
	}
	m.fitState = m.fitState[:len(candidates)]
	clear(m.fitState)
	// Ideal utilisation components: minimum across fitting candidates.
	// Utilisations are finite, so the first fitting candidate always
	// lowers the all-+Inf start: found is false only when none fits.
	var ideal cluster.Vec
	for r := range ideal {
		ideal[r] = math.Inf(1)
	}
	found := false
	for i, si := range candidates {
		u := ctx.Cluster.Server(si).Utilization()
		if !lowersAny(u, ideal) || !m.fits(ctx, t, i, si) {
			continue
		}
		found = true
		for r := range ideal {
			if u[r] < ideal[r] {
				ideal[r] = u[r]
			}
		}
		if ideal == (cluster.Vec{}) {
			break // utilisations are never negative: nothing lowers it now
		}
	}
	if !found {
		return 0, 0, false
	}
	// Communication affinity: ideal is the maximum volume any fitting
	// candidate offers.
	var maxComm float64
	lastHost := -1
	if !m.DisableBandwidth {
		m.commVolumes(ctx, t)
		for i, si := range candidates {
			v := m.volBuf[si]
			if v != 0 {
				lastHost = i
			}
			if v > maxComm && m.fits(ctx, t, i, si) {
				maxComm = v
			}
		}
	}
	bwWeight := m.BWWeight
	if bwWeight <= 0 {
		bwWeight = 2
	}
	// dG is the loop's distance for a zero-volume candidate at sq = 0;
	// gap0 is the loop's gap at volume 0 (maxComm - 0 is maxComm
	// exactly). +, * and Sqrt are monotone on non-negative operands, so
	// no zero-volume candidate is closer than dG. Without the affinity
	// dimension every gap is 0: every candidate counts as zero-volume
	// and dG is 0.
	var dG float64
	if maxComm > 0 {
		gap0 := bwWeight * maxComm / maxComm
		dG = math.Sqrt(float64(gap0 * gap0))
	} else {
		lastHost = -1
	}
	best, bestDist := -1, math.Inf(1)
	bestSq, bestGap := math.Inf(1), math.Inf(1)
	for i, si := range candidates {
		if bestDist <= dG {
			if i > lastHost {
				break
			}
			if m.volBuf[si] == 0 {
				continue
			}
		}
		sq := ctx.Cluster.Server(si).Utilization().DistanceSq(ideal)
		var gap float64
		if maxComm > 0 {
			// Extra dimension: distance from the ideal (max) affinity.
			// Negative only for a non-fitting candidate above maxComm,
			// which the prune below never skips.
			gap = bwWeight * (maxComm - m.volBuf[si]) / maxComm
		}
		if sq >= bestSq && gap >= bestGap {
			continue
		}
		d := math.Sqrt(sq)
		if maxComm > 0 {
			d = math.Sqrt(float64(d*d) + float64(gap*gap))
		}
		// Movement degradation q_{k,V} is zero for queue placements and
		// identical across destinations for migrations, so it does not
		// enter the distance here.
		if d < bestDist && m.fits(ctx, t, i, si) {
			best, bestDist, bestSq, bestGap = si, d, sq, gap
		}
	}
	return best, ctx.Cluster.Server(best).LeastLoadedDevice().ID(), true
}

// lowersAny reports whether some component of u is below ideal's.
func lowersAny(u, ideal cluster.Vec) bool {
	for r := range u {
		if u[r] < ideal[r] {
			return true
		}
	}
	return false
}

// fits is Cluster.Fits of t on candidate i (server si)'s least-loaded
// device, memoised for the current ChooseServer call.
func (m *MLFH) fits(ctx *sched.Context, t *job.Task, i, si int) bool {
	if m.fitState[i] == fitUnknown {
		m.fitState[i] = fitNo
		if ctx.Cluster.FitsLeastLoaded(si, t.Demand, t.GPUShare, ctx.HR) {
			m.fitState[i] = fitYes
		}
	}
	return m.fitState[i] == fitYes
}

// RelieveOverloads walks the overloaded servers and moves out
// ideal-virtual-task selections until each is relieved (§3.3.3), at most
// MaxMigrationsPerServer per server. Victims are SelectMigrationTask's;
// choose picks each destination among the underloaded servers. The
// destinations are drawn from one underloaded set per round, re-tested
// only where a migration changed the load (sched.UnderloadedSet).
//
// Deviation from the paper, documented in DESIGN.md: when no underloaded
// destination exists the paper moves the victim back to the queue. Under
// this simulator's synchronous-training gang semantics an unplaced task
// stalls its whole job while the job's other tasks keep their GPUs, which
// is strictly harmful — so here victims stay put until a destination
// exists. The paper's per-task execution model tolerates requeueing.
func (m *MLFH) RelieveOverloads(ctx *sched.Context, prios *Priorities, choose sched.ServerChooser) {
	maxMig := m.MaxMigrationsPerServer
	if maxMig <= 0 {
		maxMig = 4
	}
	m.overBuf = ctx.Cluster.AppendOverloaded(m.overBuf[:0], ctx.HR)
	m.under.Reset(ctx)
	for _, si := range m.overBuf {
		m.tried = m.tried[:0]
		for moved := 0; moved < maxMig; moved++ {
			s := ctx.Cluster.Server(si)
			if !s.Overloaded(ctx.HR) {
				break
			}
			cand := m.under.IDs()
			if len(cand) == 0 {
				break
			}
			victim := m.SelectMigrationTask(ctx, prios, si)
			if victim == nil || slices.Contains(m.tried, victim.ID) {
				break
			}
			m.tried = append(m.tried, victim.ID)
			dst, dev, ok := choose(ctx, victim, cand)
			if !ok {
				break
			}
			if err := m.under.Migrate(ctx, victim, dst, dev); err != nil {
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
func (m *MLFH) SelectMigrationTask(ctx *sched.Context, prios *Priorities, si int) *job.Task {
	s := ctx.Cluster.Server(si)
	m.plBuf = s.TasksInto(m.plBuf)
	tasks := m.vicBuf[:0]
	for _, p := range m.plBuf {
		if t := ctx.TaskByRef(p.Task); t != nil {
			tasks = append(tasks, victim{t: t, p: p})
		}
	}
	m.vicBuf = tasks
	if len(tasks) == 0 {
		return nil
	}

	// Restrict to low-priority tasks on overloaded GPUs when present.
	// Device ids are indices into s.Devices().
	devs := s.Devices()
	anyOverDev := false
	for _, d := range devs {
		if d.Utilization() > ctx.HR {
			anyOverDev = true
			break
		}
	}
	candidates := tasks
	if anyOverDev {
		onOver := m.eligible[:0]
		for _, v := range tasks {
			if devs[v.p.Device].Utilization() > ctx.HR {
				onOver = append(onOver, v)
			}
		}
		m.eligible = onOver
		if len(onOver) > 0 {
			sortVictims(onOver, prios)
			candidates = onOver[:lowestShare(m.PS, len(onOver))]
		}
	} else {
		// No overloaded GPU: all tasks are eligible but still prefer the
		// lowest-priority p_s fraction to protect accuracy and JCT.
		sorted := append(m.eligible[:0], tasks...)
		m.eligible = sorted
		sortVictims(sorted, prios)
		candidates = sorted[:lowestShare(m.PS, len(sorted))]
	}

	// Ideal virtual task vector (§3.3.3): per resource, the candidates'
	// largest utilisation where the server is overloaded, else their
	// smallest.
	for i := range candidates {
		candidates[i].u = candidates[i].p.Demand.Div(s.Capacity())
	}
	srvU := s.Utilization()
	var ideal cluster.Vec
	for r := range ideal {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range candidates {
			if v.u[r] < lo {
				lo = v.u[r]
			}
			if v.u[r] > hi {
				hi = v.u[r]
			}
		}
		if srvU[r] > ctx.HR {
			ideal[r] = hi
		} else {
			ideal[r] = lo
		}
	}
	var best *job.Task
	bestDist := math.Inf(1)
	var maxComm float64
	if !m.DisableBandwidth {
		for i := range candidates {
			v := CommVolumeWith(ctx, candidates[i].t, si)
			candidates[i].comm = v
			if v > maxComm {
				maxComm = v
			}
		}
	}
	for _, v := range candidates {
		d := v.u.Distance(ideal)
		if maxComm > 0 {
			// u_BW,v = 0 is ideal: migrating a task that talks to this
			// server would add cross-server traffic.
			gap := v.comm / maxComm
			d = math.Sqrt(float64(d*d) + float64(gap*gap))
		}
		//mlfs:allow floatcmp deliberate exact tie on the RIAL distance: equal bits fall through to the task-id tie-break for determinism
		if d < bestDist || (d == bestDist && (best == nil || v.t.ID < best.ID)) {
			best, bestDist = v.t, d
		}
	}
	return best
}

// lowestShare is how many of n priority-sorted victims form the p_s
// fraction eligible for migration: ⌈ps·n⌉, at least one.
func lowestShare(ps float64, n int) int {
	k := int(math.Ceil(ps * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}
