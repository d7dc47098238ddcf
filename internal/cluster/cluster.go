package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// TaskRef is an opaque task identifier assigned by the workload layer.
// The cluster package only needs identity, never task semantics.
type TaskRef int64

// Placement records where a task sits and what it consumes.
type Placement struct {
	Task     TaskRef
	Server   int // server index
	Device   int // GPU index within the server
	Demand   Vec // per-resource consumption on the server
	GPUShare float64
}

// Device is a single GPU (or CPU slot when simulating CPU clusters; the
// paper uses GPUs as the example, §3.1).
// Device load state is epoch-guarded: Server.epoch must advance with
// every change, so writes are confined to the designated cluster
// mutators (Place/Remove/UpdateDemand) — enforced by mlfs-lint's
// epochguard analyzer via the //mlfs:guarded markers.
type Device struct {
	id       int
	capacity float64
	load     float64 //mlfs:guarded
	//mlfs:derived rebuilt by RestoreState's placement replay
	tasks map[TaskRef]float64 //mlfs:guarded task -> gpu share
}

// ID returns the device index within its server.
func (d *Device) ID() int { return d.id }

// Capacity returns the device compute capacity.
func (d *Device) Capacity() float64 { return d.capacity }

// Load returns the total GPU share currently placed on the device.
func (d *Device) Load() float64 { return d.load }

// Utilization returns load/capacity.
func (d *Device) Utilization() float64 {
	if d.capacity == 0 {
		return 0
	}
	return d.load / d.capacity
}

// NumTasks returns the number of tasks on the device.
func (d *Device) NumTasks() int { return len(d.tasks) }

// Tasks returns the task refs on this device in ascending order.
func (d *Device) Tasks() []TaskRef {
	out := make([]TaskRef, 0, len(d.tasks))
	for t := range d.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Server is one machine: a capacity vector plus a set of GPU devices.
type Server struct {
	id       int
	capacity Vec
	used     Vec //mlfs:guarded
	devices  []*Device
	//mlfs:derived rebuilt by RestoreState's placement replay
	tasks map[TaskRef]*Placement //mlfs:guarded

	// up marks the server in service. A failed server (fault injection,
	// see FaultProcess) rejects placements and is excluded from the
	// Underloaded candidate set until repaired. Servers start up; only
	// Cluster.FailServer / Cluster.RepairServer flip this.
	up bool

	// epoch counts load changes on this server (placements, removals,
	// demand updates). It lets callers cache anything derived from the
	// server's load and invalidate with a single integer comparison
	// instead of recomputing: the simulator keys its per-job iteration
	// cost cache on the epochs of the servers the job touches.
	epoch uint64 //mlfs:derived re-bumped by RestoreState so every cache misses

	// Epoch-keyed caches of the derived load quantities the schedulers
	// probe many times per round. An entry is valid when its epoch field
	// equals the server epoch; cache epochs start at ^0 so a fresh server
	// (epoch 0) recomputes on first use.
	utilAt Vec     //mlfs:derived epoch-keyed cache, recomputed on first probe
	utilEp uint64  //mlfs:derived epoch-keyed cache
	normAt float64 //mlfs:derived epoch-keyed cache
	normEp uint64  //mlfs:derived epoch-keyed cache
	ovlAt  bool    //mlfs:derived epoch-keyed cache
	ovlHR  float64 //mlfs:derived epoch-keyed cache
	ovlEp  uint64  //mlfs:derived epoch-keyed cache
}

// ID returns the server index.
func (s *Server) ID() int { return s.id }

// Epoch returns the server's load epoch: a counter bumped by every
// placement, removal or demand update on this server. Two equal epoch
// reads bracket an unchanged load state.
func (s *Server) Epoch() uint64 { return s.epoch }

// Up reports whether the server is in service (not failed).
func (s *Server) Up() bool { return s.up }

// Capacity returns the per-resource capacity vector.
func (s *Server) Capacity() Vec { return s.capacity }

// Used returns the per-resource consumption vector.
func (s *Server) Used() Vec { return s.used }

// bump invalidates the derived-load caches by advancing the epoch.
func (s *Server) bump() { s.epoch++ }

// Utilization returns the utilisation vector U_s = used/capacity (§3.3.2).
func (s *Server) Utilization() Vec {
	if s.utilEp != s.epoch {
		s.utilAt = s.used.Div(s.capacity)
		s.utilEp = s.epoch
	}
	return s.utilAt
}

// OverloadDegree returns ||U_s||, the server overload degree O_s (§3.5).
func (s *Server) OverloadDegree() float64 {
	if s.normEp != s.epoch {
		s.normAt = s.Utilization().Norm()
		s.normEp = s.epoch
	}
	return s.normAt
}

// Overloaded reports whether any resource utilisation exceeds hr, the
// paper's per-resource overload threshold h_r (§3.3.2: "type-m resource in
// a server is overloaded if u_m > h_r"; a server with at least one
// overloaded resource is overloaded).
func (s *Server) Overloaded(hr float64) bool {
	if s.ovlEp == s.epoch && s.ovlHR == hr { //mlfs:allow floatcmp exact cache-key match: hr is a run constant, equality means the memo was computed for this threshold
		return s.ovlAt
	}
	s.ovlAt = s.overloaded(hr)
	s.ovlHR = hr
	s.ovlEp = s.epoch
	return s.ovlAt
}

func (s *Server) overloaded(hr float64) bool {
	if s.Utilization().AnyAbove(hr) {
		return true
	}
	// GPUs are scheduled per-device: any overloaded device also marks the
	// server overloaded (§3.3.3 "each GPU must not be overloaded").
	for _, d := range s.devices {
		if d.Utilization() > hr {
			return true
		}
	}
	return false
}

// OverloadedResources returns the set of resource types whose utilisation
// exceeds hr.
func (s *Server) OverloadedResources(hr float64) []Resource {
	var out []Resource
	u := s.Utilization()
	for i, x := range u {
		if x > hr {
			out = append(out, Resource(i))
		}
	}
	return out
}

// Devices returns the server's GPU devices.
func (s *Server) Devices() []*Device { return s.devices }

// NumDevices returns the GPU count.
func (s *Server) NumDevices() int { return len(s.devices) }

// Tasks returns placements on this server in ascending task order.
func (s *Server) Tasks() []*Placement {
	return s.TasksInto(make([]*Placement, 0, len(s.tasks)))
}

// TasksInto is Tasks reusing buf's storage (its contents are
// discarded), so a scheduler round that reads a server's tasks per
// migration victim allocates nothing.
func (s *Server) TasksInto(buf []*Placement) []*Placement {
	out := buf[:0]
	for _, p := range s.tasks {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b *Placement) int { return cmp.Compare(a.Task, b.Task) })
	return out
}

// NumTasks returns the number of tasks placed on the server.
func (s *Server) NumTasks() int { return len(s.tasks) }

// LeastLoadedDevice returns the device with the lowest utilisation
// (§3.3.2: "we schedule the task to the least-loaded GPU in the selected
// server"). Ties break toward the lowest device id for determinism.
func (s *Server) LeastLoadedDevice() *Device {
	best := s.devices[0]
	for _, d := range s.devices[1:] {
		if d.Utilization() < best.Utilization() {
			best = d
		}
	}
	return best
}

// Cluster is the full machine set plus the placement index.
type Cluster struct {
	servers    []*Server
	placements map[TaskRef]*Placement //mlfs:guarded

	// epoch counts every load change anywhere in the cluster; see
	// Server.Epoch. odegAt/odegEp memoise the cluster overload degree,
	// which schedulers evaluate several times per round (it is a full
	// scan over servers otherwise).
	epoch  uint64  //mlfs:derived re-bumped by RestoreState so the memo misses
	odegAt float64 //mlfs:derived epoch-keyed memo of the overload degree
	odegEp uint64  //mlfs:derived epoch-keyed memo
}

// Epoch returns the cluster-wide load epoch: a counter bumped by every
// placement, removal or demand update on any server.
func (c *Cluster) Epoch() uint64 { return c.epoch }

// bump invalidates cluster-level derived-load caches.
func (c *Cluster) bump() { c.epoch++ }

// Config describes a homogeneous cluster. The paper's real testbed is 20
// servers x 4 V100 GPUs (§4.1); the large-scale simulation is 550 servers
// and 2474 GPUs.
type Config struct {
	Servers        int
	GPUsPerServer  int
	GPUCapacity    float64 // compute units per GPU
	CPUCapacity    float64
	MemoryCapacity float64
	BWCapacity     float64
}

// PaperRealConfig returns the paper's real-experiment cluster: 20 servers,
// 4 GPUs each (80 GPUs), p3.8xlarge-like (32 vCPU, 244 GB).
func PaperRealConfig() Config {
	return Config{
		Servers:        20,
		GPUsPerServer:  4,
		GPUCapacity:    1,
		CPUCapacity:    32,
		MemoryCapacity: 244,
		BWCapacity:     1200, // MB/s, ~10 Gbps
	}
}

// PaperSimConfig returns the paper's large-scale simulation cluster:
// 550 servers, 2474 GPUs total. 2474 is not divisible by 550; we use
// ceil(2474/550) = 4.5 -> 4 GPUs on most servers. We follow the trace
// analysis paper (Jeon et al.) and use 550 x 4 = 2200 plus extra capacity
// folded into GPU capacity is NOT done; instead we use 550 servers with
// 4 or 5 GPUs alternating to total 2474.
func PaperSimConfig() Config {
	return Config{
		Servers:        550,
		GPUsPerServer:  -1, // signals the 2474-GPU alternating layout
		GPUCapacity:    1,
		CPUCapacity:    32,
		MemoryCapacity: 244,
		BWCapacity:     1200,
	}
}

// TotalGPUs returns the GPU count a Config will create (the 2474-GPU
// layout when GPUsPerServer is -1).
func (cfg Config) TotalGPUs() int {
	if cfg.GPUsPerServer < 0 {
		return 2474
	}
	return cfg.Servers * cfg.GPUsPerServer
}

// New builds a cluster from cfg. A GPUsPerServer of -1 selects the paper's
// 2474-GPU layout over 550 servers (274 servers with 5 GPUs, 276 with 4).
func New(cfg Config) *Cluster {
	c := &Cluster{placements: make(map[TaskRef]*Placement), odegEp: ^uint64(0)}
	for i := 0; i < cfg.Servers; i++ {
		n := cfg.GPUsPerServer
		if n < 0 {
			// 550 servers totalling 2474 GPUs: x servers with 5 GPUs and
			// (550-x) with 4 satisfies 5x + 4(550-x) = 2474 -> x = 274.
			if i < 2474-4*cfg.Servers {
				n = 5
			} else {
				n = 4
			}
		}
		s := &Server{
			id:     i,
			up:     true,
			tasks:  make(map[TaskRef]*Placement),
			utilEp: ^uint64(0), // cache epochs start invalid (epoch is 0)
			normEp: ^uint64(0),
			ovlEp:  ^uint64(0),
		}
		s.capacity = Vec{
			ResGPU:       float64(n) * cfg.GPUCapacity,
			ResCPU:       cfg.CPUCapacity,
			ResMemory:    cfg.MemoryCapacity,
			ResBandwidth: cfg.BWCapacity,
		}
		for g := 0; g < n; g++ {
			s.devices = append(s.devices, &Device{
				id:       g,
				capacity: cfg.GPUCapacity,
				tasks:    make(map[TaskRef]float64),
			})
		}
		c.servers = append(c.servers, s)
	}
	return c
}

// Servers returns the server list.
func (c *Cluster) Servers() []*Server { return c.servers }

// Server returns server i.
func (c *Cluster) Server(i int) *Server { return c.servers[i] }

// NumServers returns the number of servers.
func (c *Cluster) NumServers() int { return len(c.servers) }

// NumGPUs returns the total GPU count.
func (c *Cluster) NumGPUs() int {
	n := 0
	for _, s := range c.servers {
		n += len(s.devices)
	}
	return n
}

// NumTasks returns the total number of placed tasks.
func (c *Cluster) NumTasks() int { return len(c.placements) }

// Lookup returns the placement of task t, or nil if t is not placed.
func (c *Cluster) Lookup(t TaskRef) *Placement {
	return c.placements[t]
}

// Place assigns task t to (server, device) consuming demand and gpuShare.
// It returns an error when the task is already placed or the indices are
// out of range. Place never rejects on capacity: the cluster records
// over-commitment and the overload machinery (migration, MLF-C) is
// responsible for resolving it, matching the paper's model where servers
// can become overloaded.
func (c *Cluster) Place(t TaskRef, server, device int, demand Vec, gpuShare float64) error {
	return c.place(&Placement{Task: t, Server: server, Device: device, Demand: demand, GPUShare: gpuShare})
}

// Move re-places placed task t on (server, device) with the given
// demand. It is exactly Remove followed by Place — the same load
// arithmetic and epoch bumps — and, when Place fails, a second Place
// back where the task was, except that the task's Placement record is
// reused instead of reallocated, so a migration allocates nothing.
// Callers must not hold a Placement of t across a Move and expect its
// old fields.
func (c *Cluster) Move(t TaskRef, server, device int, demand Vec, gpuShare float64) error {
	p := c.Remove(t)
	if p == nil {
		return fmt.Errorf("cluster: task %d is not placed", t)
	}
	old := *p
	p.Server, p.Device, p.Demand, p.GPUShare = server, device, demand, gpuShare
	if err := c.place(p); err != nil {
		*p = old
		if rbErr := c.place(p); rbErr != nil {
			return fmt.Errorf("cluster: move rollback failed: %v (after %w)", rbErr, err)
		}
		return err
	}
	return nil
}

// place checks record p and, when it is valid, charges its demand and
// indexes it: the body of Place and Move.
func (c *Cluster) place(p *Placement) error {
	t, server, device := p.Task, p.Server, p.Device
	if _, ok := c.placements[t]; ok {
		return fmt.Errorf("cluster: task %d already placed", t)
	}
	if server < 0 || server >= len(c.servers) {
		return fmt.Errorf("cluster: server %d out of range [0,%d)", server, len(c.servers))
	}
	s := c.servers[server]
	if !s.up {
		return fmt.Errorf("cluster: server %d is down", server)
	}
	if device < 0 || device >= len(s.devices) {
		return fmt.Errorf("cluster: device %d out of range on server %d", device, server)
	}
	s.used = s.used.Add(p.Demand)
	d := s.devices[device]
	d.load += p.GPUShare
	d.tasks[t] = p.GPUShare
	s.tasks[t] = p
	c.placements[t] = p
	s.bump()
	c.bump()
	return nil
}

// Remove evicts task t from the cluster, releasing its resources. It
// returns the removed placement, or nil if the task was not placed.
func (c *Cluster) Remove(t TaskRef) *Placement {
	p, ok := c.placements[t]
	if !ok {
		return nil
	}
	s := c.servers[p.Server]
	s.used = s.used.Sub(p.Demand).Clamp()
	d := s.devices[p.Device]
	d.load -= d.tasks[t]
	if d.load < 0 {
		d.load = 0
	}
	delete(d.tasks, t)
	delete(s.tasks, t)
	delete(c.placements, t)
	s.bump()
	c.bump()
	return p
}

// FailServer marks server i down and evicts every task placed on it,
// returning the evicted placements in ascending task order (nil when the
// server was already down). Eviction goes through Remove so the epoch
// machinery and guarded load fields stay consistent; callers (the
// simulator's fault loop) requeue the displaced tasks through the
// scheduler. A down server rejects Place, fails Fits and is excluded
// from Underloaded until RepairServer.
func (c *Cluster) FailServer(i int) []*Placement {
	s := c.servers[i]
	if !s.up {
		return nil
	}
	s.up = false
	evicted := s.Tasks() // sorted snapshot: Remove mutates s.tasks underneath
	for _, p := range evicted {
		c.Remove(p.Task)
	}
	s.bump()
	c.bump()
	return evicted
}

// RepairServer returns server i to service. Evicted placements are not
// restored — displaced tasks re-enter through the normal scheduling
// path, modelling a restart-from-checkpoint rather than live migration.
func (c *Cluster) RepairServer(i int) {
	s := c.servers[i]
	if s.up {
		return
	}
	s.up = true
	s.bump()
	c.bump()
}

// NumUp returns the number of in-service servers.
func (c *Cluster) NumUp() int {
	n := 0
	for _, s := range c.servers {
		if s.up {
			n++
		}
	}
	return n
}

// SetDemand updates the resource consumption of a placed task in place —
// used by the simulator to model time-varying task demands (activity
// wobble), which is what makes servers drift into overload at runtime.
// It returns false when the task is not placed.
func (c *Cluster) SetDemand(t TaskRef, demand Vec, gpuShare float64) bool {
	p, ok := c.placements[t]
	if !ok {
		return false
	}
	c.UpdateDemand(p, demand, gpuShare)
	return true
}

// UpdateDemand is SetDemand for a placement the caller already holds: it
// skips the task lookup, which matters on the per-task-per-tick demand
// wobble path. p must be a live placement of this cluster (as returned by
// Lookup or Place — not a stale copy).
func (c *Cluster) UpdateDemand(p *Placement, demand Vec, gpuShare float64) {
	s := c.servers[p.Server]
	s.used = s.used.Sub(p.Demand).Add(demand).Clamp()
	d := s.devices[p.Device]
	d.load += gpuShare - d.tasks[p.Task]
	if d.load < 0 {
		d.load = 0
	}
	d.tasks[p.Task] = gpuShare
	p.Demand = demand
	p.GPUShare = gpuShare
	s.bump()
	c.bump()
}

// AttemptLog records the pre-attempt load bits of the servers and devices
// a speculative gang attempt touches. Gang placement is all-or-nothing:
// when a later task of the gang cannot be hosted, the earlier placements
// are rolled back, leaving the cluster in — numerically — its pre-attempt
// state. The rollback arithmetic ((used+d)−d) is not guaranteed bit-exact
// though, and every Place/Remove bumps the epochs, so without this log a
// failed attempt invalidates every epoch-keyed memo (underloaded
// candidates, no-fit frontier, per-server load caches) even when it
// changed nothing. AbortAttempt verifies bit-exact restoration and, only
// then, rewinds the epochs — turning a failed attempt into a true no-op.
//
// The zero value is ready; one log is reused across attempts (the entry
// slice is high-water scratch).
type AttemptLog struct {
	entries []attemptEntry
	clEpoch uint64
}

// attemptEntry is one (server, device) placement target with the load
// bits and server epoch observed at first touch.
type attemptEntry struct {
	server, device int
	used           Vec
	load           float64
	srvEpoch       uint64
}

// BeginAttempt arms l for a new speculative attempt starting from the
// current cluster state.
func (c *Cluster) BeginAttempt(l *AttemptLog) {
	l.entries = l.entries[:0]
	l.clEpoch = c.epoch
}

// NoteAttemptTarget records (server, device) as a target of the armed
// attempt, capturing its pre-attempt load bits. Must be called before the
// corresponding Place; repeated targets are recorded once (first touch
// carries the pre-attempt bits). Attempts touch a gang's worth of targets,
// so the dedup scan is a handful of comparisons.
func (c *Cluster) NoteAttemptTarget(l *AttemptLog, server, device int) {
	for i := range l.entries {
		if l.entries[i].server == server && l.entries[i].device == device {
			return
		}
	}
	s := c.servers[server]
	l.entries = append(l.entries, attemptEntry{
		server:   server,
		device:   device,
		used:     s.used,
		load:     s.devices[device].load,
		srvEpoch: s.epoch,
	})
}

// AbortAttempt finishes a failed attempt after the caller has removed
// every placement it made. It verifies that each recorded target's load
// returned to its pre-attempt bits exactly; if so, it rewinds the touched
// servers' epochs and the cluster epoch to their pre-attempt values —
// sound because the states they keyed are bit-identical again — and
// reports true. The rewind re-uses epoch values, so every derived cache
// the attempt may have written at a transient epoch is invalidated here
// (the touched servers' load caches, the cluster overload memo); callers
// holding their own cluster-epoch-keyed memos must do the same (see
// sched.Context.PlaceGang). When any bit differs the epochs stay
// advanced — the status-quo behaviour, always sound — and it reports
// false.
func (c *Cluster) AbortAttempt(l *AttemptLog) bool {
	for i := range l.entries {
		e := &l.entries[i]
		s := c.servers[e.server]
		if firstServerTouch(l.entries, i) && !bitsEqual(s.used, e.used) {
			return false
		}
		if math.Float64bits(s.devices[e.device].load) != math.Float64bits(e.load) {
			return false
		}
	}
	for i := range l.entries {
		e := &l.entries[i]
		if !firstServerTouch(l.entries, i) {
			continue
		}
		s := c.servers[e.server]
		s.epoch = e.srvEpoch //mlfs:allow epochguard verified bit-exact rewind; the transient-epoch caches are invalidated right below
		s.utilEp = ^uint64(0)
		s.normEp = ^uint64(0)
		s.ovlEp = ^uint64(0)
	}
	c.epoch = l.clEpoch //mlfs:allow epochguard verified bit-exact rewind; odegEp invalidation below keeps derived caches honest
	c.odegEp = ^uint64(0)
	return true
}

// firstServerTouch reports whether entries[i] is the first entry for its
// server — the one holding the server's pre-attempt used vector and epoch.
func firstServerTouch(entries []attemptEntry, i int) bool {
	for k := 0; k < i; k++ {
		if entries[k].server == entries[i].server {
			return false
		}
	}
	return true
}

// bitsEqual compares two vectors bit for bit (float == would conflate
// +0/−0 and reject equal NaNs; epoch rewinding needs exact bits).
func bitsEqual(a, b Vec) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Fits reports whether placing demand/gpuShare on (server, device) keeps
// every resource at or below the hr threshold — the paper's "will not be
// overloaded (on each resource and its least-loaded GPU) by hosting the
// task" check (§3.3.2).
func (c *Cluster) Fits(server, device int, demand Vec, gpuShare float64, hr float64) bool {
	return c.fitsServer(server, demand, hr) && fitsDevice(c.servers[server].devices[device], gpuShare, hr)
}

// FitsLeastLoaded is Fits on the server's least-loaded device, the
// device every chooser places on. The device is looked up only when
// the server's resources fit, which is most of the cost of a probe
// that fails.
func (c *Cluster) FitsLeastLoaded(server int, demand Vec, gpuShare float64, hr float64) bool {
	return c.fitsServer(server, demand, hr) && fitsDevice(c.servers[server].LeastLoadedDevice(), gpuShare, hr)
}

// fitsServer is the server half of Fits: up, and every resource at or
// below hr after adding demand.
func (c *Cluster) fitsServer(server int, demand Vec, hr float64) bool {
	s := c.servers[server]
	return s.up && !s.used.Add(demand).Div(s.capacity).AnyAbove(hr)
}

// fitsDevice is the device half of Fits.
func fitsDevice(d *Device, gpuShare float64, hr float64) bool {
	if d.capacity == 0 {
		return gpuShare == 0
	}
	return (d.load+gpuShare)/d.capacity <= hr
}

// Underloaded returns the indices of servers that are not overloaded at
// threshold hr, in ascending order. Failed servers are never candidates:
// every placement path (PlaceGang choosers, migration destinations)
// draws from this set, so excluding them here keeps all schedulers off
// down machines without each policy knowing about failures.
func (c *Cluster) Underloaded(hr float64) []int {
	return c.AppendUnderloaded(nil, hr)
}

// AppendUnderloaded is Underloaded into a caller-provided slice: the
// candidate indices are appended to dst (usually dst[:0] of a reusable
// scratch buffer) and the extended slice returned. Callers that query
// candidates once per queued task — the gang-placement path — combine
// this with the cluster epoch to skip both the rescan and the per-call
// allocation while the cluster is unchanged.
func (c *Cluster) AppendUnderloaded(dst []int, hr float64) []int {
	for i, s := range c.servers {
		if s.up && !s.Overloaded(hr) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Overloaded returns the indices of overloaded servers at threshold hr.
func (c *Cluster) Overloaded(hr float64) []int {
	return c.AppendOverloaded(nil, hr)
}

// AppendOverloaded is Overloaded into a caller-provided slice, the
// allocation-free form for per-round relief loops.
func (c *Cluster) AppendOverloaded(dst []int, hr float64) []int {
	for i, s := range c.servers {
		if s.Overloaded(hr) {
			dst = append(dst, i)
		}
	}
	return dst
}

// OverloadDegree returns the cluster overload degree O_c, the mean of the
// per-server overload degrees (§3.5).
func (c *Cluster) OverloadDegree() float64 {
	if len(c.servers) == 0 {
		return 0
	}
	if c.odegEp == c.epoch {
		return c.odegAt
	}
	var sum float64
	for _, s := range c.servers {
		sum += s.OverloadDegree()
	}
	c.odegAt = sum / float64(len(c.servers))
	c.odegEp = c.epoch
	return c.odegAt
}

// MeanUtilization returns the mean utilisation vector across servers.
func (c *Cluster) MeanUtilization() Vec {
	var sum Vec
	if len(c.servers) == 0 {
		return sum
	}
	for _, s := range c.servers {
		sum = sum.Add(s.Utilization())
	}
	return sum.Scale(1 / float64(len(c.servers)))
}
