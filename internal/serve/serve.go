// Package serve is the online scheduling service behind cmd/mlfs-serve:
// it hosts one Simulator on a single-writer event loop, exposes an
// HTTP/JSON API (submit / status / cancel / cluster / metrics) and
// provides crash recovery from a submission journal plus periodic
// snapshots.
//
// Concurrency model: exactly one goroutine — the event loop — owns the
// simulator and every piece of run state (queue, job registry, pause
// flag). HTTP handlers never touch that state directly; they send
// closures over a channel and wait for the loop to execute them
// between simulation steps. That is what keeps the determinism
// contracts intact: the simulator still sees a strictly serial stream
// of (submission, tick, cancel) events, and replaying the journaled
// stream through the batch simulator reproduces the service run
// bit-for-bit (the serve-smoke test enforces it).
//
// Determinism: the package is enrolled in the lint DeterministicPaths
// registry (mapiter, noclock, sharedcapture), plus the repo-wide
// epochguard, floatcmp and pkgdoc checks. The wall clock is read in
// exactly one function (clock.go) — the real-time boundary — and the
// only place host timing touches simulation state is the arrival stamp
// of live submissions, which is journaled and thereby part of the
// recorded workload.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// serveHorizon is the fixed simulation horizon of a service run. It is
// effectively "never" (≈31M years of simulated time) but must be a
// stable constant: MaxSimSec is part of the snapshot fingerprint, so a
// restart computes the identical value.
const serveHorizon = 1e15

// serveStateVersion versions the service's own snapshot section (the
// wrapper around the simulator payload).
const serveStateVersion = 1

// Default http.Server timeouts (Config zero values). Chosen so a
// slowloris client cannot pin a connection indefinitely while leaving
// comfortable room for the replicate long-poll (bounded at half the
// write timeout) and large submit bodies.
const (
	defaultReadHeaderTimeout = 10 * time.Second
	defaultReadTimeout       = 30 * time.Second
	defaultWriteTimeout      = 60 * time.Second
	defaultIdleTimeout       = 120 * time.Second
)

// timeoutOr maps a Config timeout to the http.Server value: zero picks
// the hardened default, negative disables the timeout.
func timeoutOr(v, def time.Duration) time.Duration {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// errServerClosed is returned by API calls after the event loop exits.
var errServerClosed = errors.New("serve: server closed")

// errJournal tags run failures caused by a journal write. Once an
// append has failed the journal tail is suspect, so the run stops and
// finalize refuses to cut a snapshot that could mask the loss.
var errJournal = errors.New("serve: journal write failed")

// Scheduler is the policy interface the service hosts (alias, so
// callers outside internal/sched can name it in factories).
type Scheduler = sched.Scheduler

// Config parameterises a service instance.
type Config struct {
	// NewScheduler constructs the scheduling policy. A factory rather
	// than an instance so the batch oracle (Oracle) can build an
	// independent twin of the service's scheduler.
	NewScheduler func() (Scheduler, error)
	// SchedulerName is reported by /v1/cluster (informational).
	SchedulerName string

	Cluster cluster.Config

	// Simulation knobs, passed through to sim.Config (zero = that
	// package's documented defaults).
	TickSec      float64
	HR, HS       float64
	DemandWobble float64
	Failures     sim.FailureConfig

	// Timescale is the clock bridge: simulated seconds advanced per
	// wall-clock second. 0 (or negative) means as-fast-as-possible —
	// the loop steps whenever the simulator has pending events, which
	// is the mode the load generator and the parity tests use.
	Timescale float64

	// SnapshotEvery writes a crash-consistent snapshot (service wrapper
	// + full simulator state) every that many ticks; 0 disables
	// snapshots. Requires SnapshotPath, JournalPath and a scheduler
	// implementing sched.Snapshotter.
	SnapshotEvery int
	SnapshotPath  string
	// JournalPath is the JSONL submission journal. Required for any
	// durability: snapshots cover only a prefix of the journal and
	// recovery re-enqueues the tail. Empty disables persistence.
	JournalPath string

	// StartPaused starts the loop with stepping suspended (POST
	// /v1/resume lifts it). The load generator's replay mode uses this
	// to enqueue a whole workload before the first tick.
	StartPaused bool

	// Admission control. Zero disables each bound (the default —
	// replay-mode tooling enqueues entire workloads up front). When a
	// bound is exceeded POST /v1/jobs sheds the submission with 429 and
	// a Retry-After derived from the timescale.
	//
	// MaxQueuedJobs caps submissions accepted but not yet admitted by
	// the simulator; MaxLookaheadSec caps how far (in simulated
	// seconds) a submission's arrival may lie ahead of the simulation
	// clock.
	MaxQueuedJobs   int
	MaxLookaheadSec float64

	// NoJournalFsync drops the per-append f.Sync: acknowledged records
	// then survive a process crash but not a host failure. See the
	// durability note in journal.go.
	NoJournalFsync bool

	// HTTP server timeouts. Zero selects a hardened default
	// (10s/30s/60s/120s); negative disables that timeout.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration

	// FollowURL makes this server a hot-standby follower: it tails the
	// primary's journal stream at this base URL (e.g.
	// "http://primary:8080"), applies every envelope live, and serves
	// read-only endpoints until promoted (POST /v1/promote).
	FollowURL string
	// PromoteOnLoss self-promotes a follower after the primary has been
	// unreachable for this long. Zero means only explicit promotion.
	PromoteOnLoss time.Duration
	// ReplicateWait bounds one /v1/replicate long-poll response
	// (default replicateDefaultWait, clamped under WriteTimeout).
	ReplicateWait time.Duration
}

// jobEntry is the service-side registry record for one submission.
// All fields are loop-owned.
type jobEntry struct {
	id       int64
	simIndex int
	rec      trace.Record

	cancelRequested bool
	cancelled       bool

	done       bool
	finalState job.State
	tally      metrics.Tally
}

// Info reports how a server came up.
type Info struct {
	// Resumed is true when a snapshot was restored; false means a
	// fresh simulator (possibly replaying the whole journal).
	Resumed bool
	// JournalRecords is the number of submissions recovered from the
	// journal (snapshot prefix + replayed tail).
	JournalRecords int
	// CompletedRestored is the number of finalised jobs recovered.
	CompletedRestored int
}

// Server hosts one simulator behind the HTTP API. Create with New,
// start the loop with Start, serve the API via Handler or Serve, stop
// with Stop (graceful) or Kill (abrupt, chaos tests).
type Server struct {
	cfg     Config
	info    Info
	httpSrv *http.Server
	reg     *registry

	calls    chan func()
	stopc    chan struct{}
	killc    chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
	killOnce sync.Once
	finalErr error // written by the loop before loopDone closes

	startedc  chan struct{} // closed by Start; gates /readyz
	startOnce sync.Once

	// rep is the sequenced in-memory journal copy behind /v1/replicate
	// (mutex-guarded internally); replicateWait bounds one long-poll.
	rep           *repLog
	replicateWait time.Duration
	promotec      chan struct{} // closed on promotion; stops the tailer
	promoteOnce   sync.Once

	// Everything below is loop-owned after Start (New builds it before
	// the loop goroutine exists, which happens-before the loop's reads).
	sim       *sim.Simulator
	queue     *liveQueue
	journal   *journal
	entries   map[int64]*jobEntry
	byIndex   []*jobEntry
	nextID    int64
	totalGPUs int

	paused         bool
	stopping       bool
	runErr         error
	pendingCancels []*jobEntry
	// futureCancels holds journal-recovered cancellations not yet
	// re-applied: recovery collects every journaled cancel whose job the
	// restored state shows neither finalised nor cancel-requested, and
	// the loop re-applies each one — through the same path a live DELETE
	// takes — once the replay clock reaches its stamp. Ordered by AtSec.
	futureCancels []futureCancel
	completed     int
	cancelledN    int
	snapshots     uint64

	anchored bool
	baseWall time.Time
	baseSim  float64

	// Follower state. While follower is true the server is a read-only
	// hot standby: mutations are refused, and the simulator never steps
	// past followHorizon — the primary's clock as of the last horizon
	// line received, which is what keeps the follower's run a paced
	// journal replay (see replicate.go).
	follower      bool
	followHorizon float64
	repApplied    uint64 // envelopes applied from the primary
	repPrimarySeq int    // primary's envelope count at last contact

	shedQueue     uint64 // submissions shed at the queued-jobs bound
	shedLookahead uint64 // submissions shed at the lookahead bound

	lastSnapTick int
	startWall    time.Time
}

// futureCancel is one recovered cancellation awaiting its replay point.
type futureCancel struct {
	e  *jobEntry
	at float64
}

// simConfig builds the simulator configuration the service runs — and,
// via Oracle, the identical configuration a batch verification run
// uses. Keeping this in one place is what makes "the service is the
// batch simulator plus an event loop" a checkable claim rather than a
// doc comment.
func (c Config) simConfig(src trace.Source, s sched.Scheduler) sim.Config {
	return sim.Config{
		Cluster:      c.Cluster,
		Source:       src,
		Scheduler:    s,
		TickSec:      c.TickSec,
		HR:           c.HR,
		HS:           c.HS,
		DemandWobble: c.DemandWobble,
		MaxSimSec:    serveHorizon,
		Failures:     c.Failures,
	}
}

// Oracle runs the batch simulator over a finished journal (typically
// read back with ReadJournal) under the exact configuration a service
// with the same Config ran live, and returns its final metrics.
// Journaled cancellations are re-applied at the simulation times they
// were acknowledged, through the same admitted-now-or-after-admission
// rules the live event loop uses, so a run with cancellations replays
// bit-for-bit too. The serve-smoke test compares this against the live
// /v1/result to prove the service preserved batch semantics.
func Oracle(cfg Config, records []trace.Record, cancels []CancelRecord) (*metrics.Result, error) {
	s, err := cfg.NewScheduler()
	if err != nil {
		return nil, err
	}
	src := &liveQueue{records: append([]trace.Record(nil), records...)}
	siml, err := sim.New(cfg.simConfig(src, s))
	if err != nil {
		return nil, err
	}
	if len(cancels) == 0 {
		// Plain workload: the batch Run loop, the exact code path the
		// bit-identity argument names.
		return siml.Run()
	}

	// SimIndex is stream order; a cancel names its job by id.
	byID := make(map[int64]int, len(records))
	for i, r := range records {
		byID[r.JobID] = i
	}
	future := append([]CancelRecord(nil), cancels...)
	sort.SliceStable(future, func(i, j int) bool { return future[i].AtSec < future[j].AtSec })
	for _, c := range future {
		if _, ok := byID[c.JobID]; !ok {
			return nil, fmt.Errorf("serve: journal cancels unknown job %d", c.JobID)
		}
	}
	// cancelLive mirrors Server.liveJob + CancelJob: cancel the job if
	// it is in the active set, no-op if it already retired.
	cancelLive := func(simIndex int) {
		for _, j := range siml.ActiveJobs() {
			if j.SimIndex == simIndex {
				siml.CancelJob(j)
				return
			}
		}
	}
	var pending []int // admitted-later cancels, mirroring pendingCancels
	for {
		// Due cancels apply before the next step, exactly where the live
		// loop applies a DELETE drained between steps.
		for len(future) > 0 && future[0].AtSec <= siml.Now() {
			i := byID[future[0].JobID]
			future = future[1:]
			if i >= siml.Consumed() {
				pending = append(pending, i)
			} else {
				cancelLive(i)
			}
		}
		progressed, err := siml.RunStep()
		if err != nil {
			return nil, err
		}
		// Deferred cancels fire right after the step that admitted their
		// job, mirroring Server.applyPendingCancels.
		keep := pending[:0]
		for _, i := range pending {
			if i >= siml.Consumed() {
				keep = append(keep, i)
			} else {
				cancelLive(i)
			}
		}
		pending = keep
		if !progressed {
			break
		}
	}
	return siml.Finish(), nil
}

// ReadJournal loads a journal's submissions and cancellations
// (exported for the oracle path and tooling).
func ReadJournal(path string) ([]trace.Record, []CancelRecord, error) { return readJournal(path) }

// New builds a server: it recovers state from the journal and snapshot
// when they exist, otherwise starts empty. The event loop is not yet
// running — call Start.
func New(cfg Config) (*Server, error) {
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("serve: Config.NewScheduler is required")
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("serve: SnapshotEvery must be >= 0, got %d", cfg.SnapshotEvery)
	}
	if cfg.SnapshotEvery > 0 && (cfg.SnapshotPath == "" || cfg.JournalPath == "") {
		return nil, fmt.Errorf("serve: snapshots need both SnapshotPath and JournalPath")
	}
	s := &Server{
		cfg:      cfg,
		reg:      newRegistry(),
		calls:    make(chan func(), 256),
		stopc:    make(chan struct{}),
		killc:    make(chan struct{}),
		loopDone: make(chan struct{}),
		startedc: make(chan struct{}),
		promotec: make(chan struct{}),
		rep:      newRepLog(),
		entries:  make(map[int64]*jobEntry),
		paused:   cfg.StartPaused,
		nextID:   1,
		follower: cfg.FollowURL != "",
	}
	s.replicateWait = cfg.ReplicateWait
	if s.replicateWait <= 0 {
		s.replicateWait = replicateDefaultWait
	}
	if wt := timeoutOr(cfg.WriteTimeout, defaultWriteTimeout); wt > 0 && s.replicateWait > wt/2 {
		// Keep the long-poll window safely inside the connection write
		// deadline, or every replicate response would be cut mid-stream.
		s.replicateWait = wt / 2
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if cfg.SnapshotEvery > 0 {
		// Snapshot fails exactly when the scheduler is not a
		// Snapshotter; surface that at startup, not at the first
		// cadence tick.
		if _, err := s.sim.Snapshot(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	s.totalGPUs = s.sim.Cluster().NumGPUs()
	s.startWall = wallNow()
	// Timeouts on every axis a slow or hostile client could pin: header
	// read, body read, response write, idle keep-alive.
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: timeoutOr(cfg.ReadHeaderTimeout, defaultReadHeaderTimeout),
		ReadTimeout:       timeoutOr(cfg.ReadTimeout, defaultReadTimeout),
		WriteTimeout:      timeoutOr(cfg.WriteTimeout, defaultWriteTimeout),
		IdleTimeout:       timeoutOr(cfg.IdleTimeout, defaultIdleTimeout),
	}
	s.sim.SetRetireHook(s.onRetire)
	s.sim.SetRoundTimingHook(s.onRound)
	return s, nil
}

// onRound feeds each scheduling round's wall-clock duration into the
// decision-latency histogram. Runs inside RunStep, on the loop
// goroutine.
func (s *Server) onRound(sec float64) { s.reg.observeDecision(sec) }

// onRetire records a job's final outcome the instant the simulator
// finalises it. Runs inside the simulation step, on the loop goroutine.
func (s *Server) onRetire(j *job.Job) {
	if j.SimIndex < 0 || j.SimIndex >= len(s.byIndex) {
		return
	}
	e := s.byIndex[j.SimIndex]
	if e.done {
		return
	}
	e.done = true
	e.finalState = j.State
	e.tally = metrics.TallyOf(j)
	s.completed++
	if e.cancelRequested && j.State == job.Killed {
		e.cancelled = true
		s.cancelledN++
	}
}

// addEntry registers an accepted record in the service-side registry.
func (s *Server) addEntry(rec trace.Record) *jobEntry {
	e := &jobEntry{id: rec.JobID, simIndex: len(s.byIndex), rec: rec}
	s.entries[e.id] = e
	s.byIndex = append(s.byIndex, e)
	if rec.JobID >= s.nextID {
		s.nextID = rec.JobID + 1
	}
	return e
}

// recover rebuilds state from the journal and snapshot. Layering: the
// journal is ground truth for the workload; the snapshot is a prefix
// checkpoint of (simulator state + finalised-job overlay). A readable
// snapshot resumes the run mid-flight and the journal tail —
// submissions and cancellations alike — is re-applied behind it; an
// unreadable or absent snapshot degrades to replaying the whole
// journal through a fresh simulator, which loses wall-clock progress
// but no acknowledged mutation. A snapshot that provably disagrees
// with the journal (longer than it, or a workload fingerprint
// mismatch) is an operator error and refuses to start.
func (s *Server) recover() error {
	envs, err := readJournalEnvelopes(s.cfg.JournalPath)
	if err != nil {
		return err
	}
	records, cancels := splitEnvelopes(envs)
	s.info.JournalRecords = len(records)

	// Seed the replication log with the canonical line of every
	// recovered envelope: a follower connecting with from=0 (or a stale
	// cursor) must be able to fetch the whole journal, and sequence
	// numbers must survive a primary restart.
	repLines := make([][]byte, len(envs))
	for i, env := range envs {
		if repLines[i], err = marshalLine(env); err != nil {
			return err
		}
	}
	s.rep.seed(repLines)

	var snapBytes []byte
	if s.cfg.SnapshotPath != "" {
		b, err := snapshot.ReadFile(s.cfg.SnapshotPath)
		switch {
		case err == nil:
			snapBytes = b
		case errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrVersion):
			snapBytes = nil // degrade to journal replay
		case isNotExist(err):
			snapBytes = nil
		default:
			return err
		}
	}

	if snapBytes != nil {
		if err := s.restoreFrom(snapBytes, records); err != nil {
			if errors.Is(err, snapshot.ErrMismatch) {
				return err
			}
			// Undecodable wrapper: fall through to journal replay.
			s.entries = make(map[int64]*jobEntry)
			s.byIndex = nil
			s.sim = nil
		} else {
			s.info.Resumed = true
			s.info.CompletedRestored = s.completed
			return s.scheduleRecoveredCancels(cancels)
		}
	}

	// Fresh run: replay the full journal (possibly empty) through a new
	// simulator. Every record carries its resolved arrival and assigned
	// id, so the replay reproduces the original run's decisions — and
	// every journaled cancel is re-applied at its stamped time.
	sc, err := s.cfg.NewScheduler()
	if err != nil {
		return err
	}
	s.queue = &liveQueue{records: records}
	siml, err := sim.New(s.cfg.simConfig(s.queue, sc))
	if err != nil {
		return err
	}
	s.sim = siml
	for _, rec := range records {
		s.addEntry(rec)
	}
	if err := s.scheduleRecoveredCancels(cancels); err != nil {
		return err
	}
	s.journal, err = openJournal(s.cfg.JournalPath, !s.cfg.NoJournalFsync)
	return err
}

// scheduleRecoveredCancels queues every journaled cancellation the
// recovered state does not already reflect: a cancel whose job is
// finalised (the snapshot covered it) or already flagged (the
// snapshot's pending-cancel overlay restored it) is done; anything
// else is re-applied by the loop once the clock reaches its stamp.
func (s *Server) scheduleRecoveredCancels(cancels []CancelRecord) error {
	for _, c := range cancels {
		e := s.entries[c.JobID]
		if e == nil {
			return fmt.Errorf("serve: journal cancels unknown job %d", c.JobID)
		}
		if e.done || e.cancelRequested {
			continue
		}
		s.futureCancels = append(s.futureCancels, futureCancel{e: e, at: c.AtSec})
	}
	sort.SliceStable(s.futureCancels, func(i, j int) bool {
		return s.futureCancels[i].at < s.futureCancels[j].at
	})
	return nil
}

// restoreFrom decodes the service snapshot wrapper and restores the
// embedded simulator state against the journaled record prefix.
func (s *Server) restoreFrom(snapBytes []byte, records []trace.Record) error {
	r := snapshot.NewReader(snapBytes)
	if v := r.Int(); v != serveStateVersion {
		return fmt.Errorf("serve: snapshot wrapper version %d, want %d", v, serveStateVersion)
	}
	savedNextID := r.Int64()
	nSnap := r.Int()
	type finalRec struct {
		id        int64
		state     int
		cancelled bool
	}
	finals := make([]finalRec, r.Len())
	for i := range finals {
		finals[i] = finalRec{id: r.Int64(), state: r.Int(), cancelled: r.Bool()}
	}
	pendingCancelIDs := make([]int64, r.Len())
	for i := range pendingCancelIDs {
		pendingCancelIDs[i] = r.Int64()
	}
	payload := r.String()
	if err := r.Finish(); err != nil {
		return err
	}
	if nSnap > len(records) {
		return fmt.Errorf("%w: snapshot covers %d submissions but the journal holds %d — the journal lost data",
			snapshot.ErrMismatch, nSnap, len(records))
	}

	sc, err := s.cfg.NewScheduler()
	if err != nil {
		return err
	}
	s.queue = &liveQueue{records: records[:nSnap:nSnap]}
	siml, err := sim.New(s.cfg.simConfig(s.queue, sc))
	if err != nil {
		return err
	}
	if err := siml.Restore([]byte(payload)); err != nil {
		return err
	}
	s.sim = siml

	for _, rec := range records[:nSnap] {
		s.addEntry(rec)
	}
	// Finalised jobs: outcome numbers come from the simulator's own
	// tallies, final states and cancel flags from the wrapper overlay.
	for _, t := range siml.Tallies() {
		if t.SimIndex < 0 || t.SimIndex >= len(s.byIndex) {
			continue
		}
		e := s.byIndex[t.SimIndex]
		e.done = true
		e.finalState = job.Finished
		e.tally = t
		s.completed++
	}
	for _, f := range finals {
		if e := s.entries[f.id]; e != nil && e.done {
			e.finalState = job.State(f.state)
			if f.cancelled {
				e.cancelled = true
				e.cancelRequested = true
				s.cancelledN++
			}
		}
	}
	for _, id := range pendingCancelIDs {
		if e := s.entries[id]; e != nil && !e.done {
			e.cancelRequested = true
			s.pendingCancels = append(s.pendingCancels, e)
		}
	}
	if savedNextID > s.nextID {
		s.nextID = savedNextID
	}
	// Re-enqueue the journal tail accepted after the snapshot was cut.
	for _, rec := range records[nSnap:] {
		s.queue.push(rec)
		s.addEntry(rec)
	}
	s.lastSnapTick = siml.Tick()
	s.journal, err = openJournal(s.cfg.JournalPath, !s.cfg.NoJournalFsync)
	return err
}

func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// Start launches the event loop (and, for a follower, the replication
// tailer). Safe to call more than once.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		close(s.startedc)
		go s.loop()
		if s.cfg.FollowURL != "" {
			go s.followLoop()
		}
	})
}

// Info reports recovery details (valid after New).
func (s *Server) Info() Info { return s.info }

// Serve runs the HTTP server on ln until Stop (or a listener error).
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Stop shuts down gracefully: stop accepting HTTP, drain in-flight
// requests, stop the loop, write a final snapshot, release the
// simulator. Safe to call more than once.
func (s *Server) Stop(ctx context.Context) error {
	herr := s.httpSrv.Shutdown(ctx)
	s.stopOnce.Do(func() { close(s.stopc) })
	select {
	case <-s.loopDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.finalErr != nil {
		return s.finalErr
	}
	return herr
}

// Kill stops the loop abruptly: no drain, no final snapshot — the
// crash-injection seam of the chaos tests. The HTTP server is closed
// without waiting for in-flight requests.
func (s *Server) Kill() {
	s.httpSrv.Close()
	s.killOnce.Do(func() { close(s.killc) })
	<-s.loopDone
}

// do executes fn on the event loop and waits for it. Returns
// errServerClosed once the loop has exited.
func (s *Server) do(fn func()) error {
	done := make(chan struct{})
	wrapped := func() { defer close(done); fn() }
	select {
	case s.calls <- wrapped:
	case <-s.loopDone:
		return errServerClosed
	}
	select {
	case <-done:
		return nil
	case <-s.loopDone:
		return errServerClosed
	}
}

// loop is the single writer: it alternates between executing queued
// API calls and stepping the simulator, pacing steps against the wall
// clock when a timescale is set.
func (s *Server) loop() {
	defer close(s.loopDone)
	defer s.journal.Close()
	for {
		if !s.drainCalls() {
			return // killed
		}
		if s.stopping {
			s.finalErr = s.finalize()
			return
		}
		if s.runErr == nil && !s.paused {
			progressed, nap := s.tryStep()
			if progressed {
				continue
			}
			if !s.idle(nap) {
				return
			}
			continue
		}
		if !s.idle(0) {
			return
		}
	}
}

// drainCalls runs every queued call without blocking; false means the
// server was killed. It also latches a pending stop, so a stop request
// is noticed between steps even when the simulator never idles
// (as-fast-as-possible mode with a deep backlog) — Stop must not have
// to wait for the whole remaining workload to drain.
func (s *Server) drainCalls() bool {
	for {
		stopc := s.stopc
		if s.stopping {
			stopc = nil // already latched; don't spin on the closed channel
		}
		select {
		case <-stopc:
			s.stopping = true
		case fn := <-s.calls:
			fn()
		case <-s.killc:
			return false
		default:
			return true
		}
	}
}

// idle blocks until there is something to do: an API call, a stop/kill
// signal, or (nap > 0) the next scheduled step time. False means the
// server was killed.
func (s *Server) idle(nap time.Duration) bool {
	var timerC <-chan time.Time
	if nap > 0 {
		t := time.NewTimer(nap)
		defer t.Stop()
		timerC = t.C
	}
	select {
	case fn := <-s.calls:
		fn()
	case <-s.stopc:
		s.stopping = true
	case <-s.killc:
		return false
	case <-timerC:
	}
	return true
}

// simTarget maps the wall clock to the simulation time the run should
// have reached under the configured timescale, anchored at the moment
// stepping (re)started.
func (s *Server) simTarget() float64 {
	return s.baseSim + wallNow().Sub(s.baseWall).Seconds()*s.cfg.Timescale
}

// tryStep executes one simulation step if one is due. It returns
// progressed=false with a nap when the next event lies in the wall
// future (timescale mode) or there is nothing to do.
func (s *Server) tryStep() (progressed bool, nap time.Duration) {
	if s.follower {
		// A follower paces against the primary's clock, not the wall:
		// step exactly while the next event is inside the replicated
		// horizon, then wait for the tailer to move it (its apply
		// closures wake the loop through the calls channel).
		next, ok := s.sim.PeekNextEventTime()
		if !ok || next > s.followHorizon {
			return false, 0
		}
		s.stepOnce()
		return true, 0
	}
	if s.cfg.Timescale > 0 {
		if !s.anchored {
			s.baseWall, s.baseSim = wallNow(), s.sim.Now()
			s.anchored = true
		}
		next, ok := s.sim.PeekNextEventTime()
		if !ok {
			return false, 0
		}
		if target := s.simTarget(); next > target {
			nap = time.Duration((next - target) / s.cfg.Timescale * float64(time.Second))
			// Clamp: re-check at least once a second (new submissions
			// move the next event), and never spin below 1 ms.
			if nap > time.Second {
				nap = time.Second
			} else if nap < time.Millisecond {
				nap = time.Millisecond
			}
			return false, nap
		}
	} else if !s.sim.HasPendingEvents() {
		return false, 0
	}
	s.stepOnce()
	return true, 0
}

// stepOnce runs one RunStep plus its service bookkeeping: recovered
// cancels due at this point, deferred cancels, snapshot cadence.
// Decision-latency telemetry streams out per round through the
// simulator's round-timing hook (onRound) while the step runs.
func (s *Server) stepOnce() {
	s.applyFutureCancels()
	if _, err := s.sim.RunStep(); err != nil {
		s.runErr = err
		return
	}
	s.applyPendingCancels()
	if s.cfg.SnapshotEvery > 0 && s.sim.Tick()-s.lastSnapTick >= s.cfg.SnapshotEvery {
		s.lastSnapTick = s.sim.Tick()
		if err := s.persist(); err != nil {
			s.runErr = fmt.Errorf("serve: snapshot: %w", err)
		}
	}
}

// applyPendingCancels cancels jobs whose DELETE arrived before they
// were admitted, now that admission caught up with them.
func (s *Server) applyPendingCancels() {
	if len(s.pendingCancels) == 0 {
		return
	}
	consumed := s.sim.Consumed()
	var live map[int]*job.Job
	keep := s.pendingCancels[:0]
	for _, e := range s.pendingCancels {
		if e.done {
			continue
		}
		if e.simIndex >= consumed {
			keep = append(keep, e)
			continue
		}
		if live == nil {
			live = make(map[int]*job.Job, len(s.sim.ActiveJobs()))
			for _, j := range s.sim.ActiveJobs() {
				live[j.SimIndex] = j
			}
		}
		if j := live[e.simIndex]; j != nil {
			s.sim.CancelJob(j) // the retire hook finalises the entry
		}
	}
	s.pendingCancels = keep
}

// liveJob resolves an admitted, unfinalised entry to its job object.
func (s *Server) liveJob(e *jobEntry) *job.Job {
	for _, j := range s.sim.ActiveJobs() {
		if j.SimIndex == e.simIndex {
			return j
		}
	}
	return nil
}

// enqueue commits an accepted record: journal first, then queue and
// registry. The journal-first order is what keeps the artifacts
// consistent on an append failure — a record that never reached the
// journal must not enter the run, or a later snapshot would claim a
// prefix the journal does not hold.
func (s *Server) enqueue(rec trace.Record) (*jobEntry, error) {
	if rec.ArrivalSec < s.queue.lastArrival() {
		return nil, fmt.Errorf("serve: arrival %g before stream tail %g", rec.ArrivalSec, s.queue.lastArrival())
	}
	line, err := s.journal.appendSubmit(rec)
	if err != nil {
		// Losing journal durability is fatal for recovery guarantees:
		// stop the run without admitting the record anywhere.
		s.runErr = fmt.Errorf("%w: %v", errJournal, err)
		return nil, s.runErr
	}
	s.rep.append(line)
	s.queue.push(rec) // cannot fail: arrival order was checked above
	return s.addEntry(rec), nil
}

// journalCancel commits an acknowledged cancellation to the journal,
// stamped with the current simulation time. Same failure contract as
// enqueue: an unjournaled cancel must not be applied.
func (s *Server) journalCancel(e *jobEntry) (CancelRecord, error) {
	c := CancelRecord{JobID: e.id, AtSec: s.sim.Now()}
	line, err := s.journal.appendCancel(c)
	if err != nil {
		s.runErr = fmt.Errorf("%w: %v", errJournal, err)
		return c, s.runErr
	}
	s.rep.append(line)
	return c, nil
}

// applyCancel consumes an acknowledged cancellation for e: a live job
// is killed immediately through the evict-to-checkpoint path, a
// not-yet-admitted one is deferred until the simulator admits it.
// Shared by the DELETE handler and the journal-replay path, so a
// replayed cancel takes the exact route the live one took.
func (s *Server) applyCancel(e *jobEntry) {
	e.cancelRequested = true
	if e.simIndex >= s.sim.Consumed() {
		s.pendingCancels = append(s.pendingCancels, e)
		return
	}
	if j := s.liveJob(e); j != nil {
		s.sim.CancelJob(j) // the retire hook finalises the entry
	}
}

// applyFutureCancels re-applies journal-recovered cancellations whose
// stamped time the replay clock has reached. Runs before each step, the
// same slot a live DELETE drained between steps occupies.
func (s *Server) applyFutureCancels() {
	for len(s.futureCancels) > 0 && s.futureCancels[0].at <= s.sim.Now() {
		fc := s.futureCancels[0]
		s.futureCancels = s.futureCancels[1:]
		if fc.e.done || fc.e.cancelRequested {
			continue // a live DELETE got there first
		}
		s.applyCancel(fc.e)
	}
}

// liveArrival resolves the arrival stamp of a live-mode submission:
// the current simulation time, pushed forward to the wall-mapped
// target when pacing in timescale mode, and never behind the stream
// tail.
func (s *Server) liveArrival() float64 {
	at := s.sim.Now()
	if s.cfg.Timescale > 0 && !s.paused && s.anchored {
		if t := s.simTarget(); t > at {
			at = t
		}
	}
	if la := s.queue.lastArrival(); la > at {
		at = la
	}
	return at
}

// admit applies the admission window to a live submission stamped
// arrival. Loop context. Either bound exceeded sheds the submission
// with 429 and a Retry-After estimating when capacity frees up —
// derived from the timescale, since the queue drains at simulation
// speed. Bounds at zero are disabled (the replay tooling enqueues
// whole workloads up front).
func (s *Server) admit(arrival float64) *httpError {
	if bound := s.cfg.MaxQueuedJobs; bound > 0 {
		if queued := len(s.byIndex) - s.sim.Consumed(); queued >= bound {
			s.shedQueue++
			return &httpError{
				code:       http.StatusTooManyRequests,
				msg:        fmt.Sprintf("admission queue full: %d submissions awaiting admission (bound %d)", queued, bound),
				retryAfter: s.queueRetryAfter(),
			}
		}
	}
	if bound := s.cfg.MaxLookaheadSec; bound > 0 {
		if ahead := arrival - s.sim.Now(); ahead > bound {
			s.shedLookahead++
			return &httpError{
				code:       http.StatusTooManyRequests,
				msg:        fmt.Sprintf("arrival %g is %g sim-seconds ahead of the clock (bound %g)", arrival, ahead, bound),
				retryAfter: wallSecondsFor(ahead-bound, s.cfg.Timescale),
			}
		}
	}
	return nil
}

// queueRetryAfter estimates the wall seconds until the oldest queued
// submission is due for admission. Loop context.
func (s *Server) queueRetryAfter() int {
	consumed := s.sim.Consumed()
	if consumed >= len(s.byIndex) {
		return 1
	}
	head := s.byIndex[consumed].rec.ArrivalSec
	return wallSecondsFor(head-s.sim.Now(), s.cfg.Timescale)
}

// wallSecondsFor converts a simulated-seconds gap into a whole-second
// Retry-After under the timescale, clamped to [1, 60] so a shed client
// neither hammers the server nor stalls for a sim-scale eternity. With
// no timescale the backlog drains as fast as the host steps, so 1
// second is the honest answer.
func wallSecondsFor(simSec, timescale float64) int {
	if timescale <= 0 {
		return 1
	}
	sec := int(math.Ceil(simSec / timescale))
	if sec < 1 {
		return 1
	}
	if sec > 60 {
		return 60
	}
	return sec
}

// persist writes the service snapshot: wrapper (id cursor, covered
// prefix length, finalised-job overlay, pending cancels) around the
// full simulator payload. Atomic via snapshot.WriteFile.
func (s *Server) persist() error {
	s.sim.SyncSourceTotal()
	payload, err := s.sim.Snapshot()
	if err != nil {
		return err
	}
	w := snapshot.NewWriter()
	w.Int(serveStateVersion)
	w.Int64(s.nextID)
	w.Int(s.queue.Len())
	var done, pend []*jobEntry
	for _, e := range s.byIndex { // byIndex order: deterministic
		if e.done {
			done = append(done, e)
		} else if e.cancelRequested {
			pend = append(pend, e)
		}
	}
	w.Int(len(done))
	for _, e := range done {
		w.Int64(e.id)
		w.Int(int(e.finalState))
		w.Bool(e.cancelled)
	}
	w.Int(len(pend))
	for _, e := range pend {
		w.Int64(e.id)
	}
	w.String(string(payload))
	if err := snapshot.WriteFile(s.cfg.SnapshotPath, w.Bytes()); err != nil {
		return err
	}
	s.snapshots++
	return nil
}

// finalize runs at graceful shutdown: cut a last snapshot so a restart
// resumes from the stop point (the journal tail covers whatever the
// snapshot does not). A run stopped by a journal-write failure skips
// the snapshot — the journal tail is suspect, and a fresh snapshot
// could mask the loss — and surfaces the failure through Stop instead.
func (s *Server) finalize() error {
	if errors.Is(s.runErr, errJournal) {
		return s.runErr
	}
	if s.cfg.SnapshotEvery <= 0 {
		return nil
	}
	return s.persist()
}
