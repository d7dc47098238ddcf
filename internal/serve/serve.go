// Package serve is the online scheduling service behind cmd/mlfs-serve:
// it hosts one Simulator on a single-writer event loop, exposes an
// HTTP/JSON API (submit / status / cancel / cluster / metrics) and
// provides crash recovery from a submission journal plus periodic
// snapshots.
//
// Concurrency model: exactly one goroutine — the event loop — owns the
// simulator and every piece of host state (queue, job registry, pause
// flag). HTTP handlers never touch that state directly; they send
// closures over a channel and wait for the loop to execute them
// between simulation steps. The simulator owns all run state, pending
// cancellations included (Simulator.CancelAt); the host only feeds it
// journal envelopes, and one function (Server.apply) applies an
// envelope, whether it came from a client, from the primary's
// replication stream or from the journal at recovery. That is what
// keeps the determinism contracts intact: the simulator sees a strictly
// serial stream of (submission, tick, cancel) events, and replaying the
// journal through the batch simulator (Oracle, a plain Run) reproduces
// the service run bit-for-bit (the serve-smoke test enforces it).
//
// Recovery: a snapshot is the simulator state after the journal's first
// N envelopes, plus N. Recovery applies those N envelopes to the
// registry, restores the simulator, and applies the rest of the journal
// through the live path; with no usable snapshot N is zero and the
// whole journal replays through a fresh simulator.
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
// wrapper around the simulator payload). Version 1 carried a per-job
// overlay; a snapshot in that layout degrades to journal replay.
const serveStateVersion = 2

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
	// recovery applies the tail. Empty disables persistence.
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

	// cancelAt is the earliest stamp of a cancellation applied to the
	// job, +Inf for none. The cancel counts as requested once the clock
	// reaches it.
	cancelAt float64

	done  bool
	tally metrics.Tally // the final outcome, state included, once done
}

// cancelled reports whether the job ended through a cancellation: it
// was killed, and a cancel stamped no later than its finish applied.
func (e *jobEntry) cancelled() bool {
	return e.done && job.State(e.tally.State) == job.Killed && e.cancelAt <= e.tally.Finish
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
	// TornBytes is the length of the unterminated final journal line
	// recovery cut off: an append that failed part-way and was never
	// acknowledged. Zero for a clean journal.
	TornBytes int64
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

	paused     bool
	stopping   bool
	runErr     error
	completed  int
	cancelledN int
	snapshots  uint64

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
// with the same Config ran live, and returns its final metrics. Each
// journaled cancellation is handed to Simulator.CancelAt, which applies
// it at the point the live run did, so a run with cancellations replays
// bit-for-bit too. The serve-smoke test compares this against the live
// /v1/result to prove the service preserved batch semantics.
func Oracle(cfg Config, records []trace.Record, cancels []CancelRecord) (*metrics.Result, error) {
	s, err := cfg.NewScheduler()
	if err != nil {
		return nil, err
	}
	siml, err := sim.New(cfg.simConfig(&liveQueue{records: append([]trace.Record(nil), records...)}, s))
	if err != nil {
		return nil, err
	}
	// SimIndex is stream order; a cancel names its job by id.
	byID := make(map[int64]int, len(records))
	for i, r := range records {
		byID[r.JobID] = i
	}
	for _, c := range cancels {
		i, ok := byID[c.JobID]
		if !ok {
			return nil, fmt.Errorf("serve: journal cancels unknown job %d", c.JobID)
		}
		siml.CancelAt(i, c.AtSec)
	}
	return siml.Run()
}

// ReadJournal loads a journal's submissions and cancellations
// (exported for the oracle path and tooling). A torn final line — an
// append that failed part-way — is skipped and the file left as it is.
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
		paused:   cfg.StartPaused,
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
	return s, nil
}

// onRound feeds each scheduling round's wall-clock duration into the
// decision-latency histogram. Runs inside RunStep, on the loop
// goroutine.
func (s *Server) onRound(sec float64) { s.reg.observeDecision(sec) }

// onRetire records a job's final outcome the instant the simulator
// finalises it. Runs inside the simulation step, on the loop goroutine.
func (s *Server) onRetire(j *job.Job) { s.finalise(metrics.TallyOf(j)) }

// finalise marks a retired job's entry done: the retire hook calls it
// live, recovery once per tally of a restored snapshot.
func (s *Server) finalise(t metrics.Tally) {
	if t.SimIndex < 0 || t.SimIndex >= len(s.byIndex) {
		return
	}
	e := s.byIndex[t.SimIndex]
	if e.done {
		return
	}
	e.done, e.tally = true, t
	s.completed++
	if e.cancelled() {
		s.cancelledN++
	}
}

// recover rebuilds the run from the journal and snapshot. The journal
// is ground truth for the workload; a snapshot is the simulator state
// after the journal's first envelopes, and recovery applies the rest of
// the journal behind it through the live apply path. An unreadable,
// old-format or absent snapshot degrades to replaying the whole journal
// through a fresh simulator, which loses wall-clock progress but no
// acknowledged mutation. A snapshot that provably disagrees with the
// journal (covering more envelopes than it holds, or a workload
// fingerprint mismatch) is an operator error and refuses to start.
func (s *Server) recover() error {
	envs, torn, err := readJournalEnvelopes(s.cfg.JournalPath)
	if err != nil {
		return err
	}
	if torn > 0 {
		if err := truncateTornTail(s.cfg.JournalPath, torn); err != nil {
			return err
		}
		s.info.TornBytes = torn
	}

	// Seed the replication log with the canonical line of every
	// recovered envelope: a follower connecting with from=0 (or a stale
	// cursor) must be able to fetch the whole journal, and sequence
	// numbers must survive a primary restart.
	repLines := make([][]byte, len(envs))
	for i, env := range envs {
		if repLines[i], err = marshalLine(env); err != nil {
			return err
		}
		if env.Submit != nil {
			s.info.JournalRecords++
		}
	}
	s.rep.seed(repLines)

	covered, payload, err := s.readSnapshot(len(envs))
	if err != nil {
		return err
	}
	err = s.replay(envs, covered, payload)
	if err != nil && payload != nil && !errors.Is(err, snapshot.ErrMismatch) {
		// The payload did not restore: replay the whole journal instead.
		err = s.replay(envs, 0, nil)
	}
	if err != nil {
		return err
	}
	s.journal, err = openJournal(s.cfg.JournalPath, !s.cfg.NoJournalFsync)
	return err
}

// readSnapshot reads the snapshot wrapper: how many journal envelopes
// the run had applied when it was cut, and the simulator payload. An
// absent, corrupt or old-format snapshot yields no payload (recovery
// then replays the journal); one covering more envelopes than the
// journal holds is ErrMismatch.
func (s *Server) readSnapshot(journaled int) (covered int, payload []byte, err error) {
	if s.cfg.SnapshotPath == "" {
		return 0, nil, nil
	}
	b, err := snapshot.ReadFile(s.cfg.SnapshotPath)
	switch {
	case err == nil:
	case errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrVersion) || isNotExist(err):
		return 0, nil, nil
	default:
		return 0, nil, err
	}
	r := snapshot.NewReader(b)
	if r.Int() != serveStateVersion {
		return 0, nil, nil
	}
	covered = r.Int()
	payload = []byte(r.String())
	if r.Finish() != nil || covered < 0 {
		return 0, nil, nil
	}
	if covered > journaled {
		return 0, nil, fmt.Errorf("%w: snapshot covers %d journal envelopes but the journal holds %d — the journal lost data",
			snapshot.ErrMismatch, covered, journaled)
	}
	return covered, payload, nil
}

// replay builds the run from scratch: a fresh simulator and registry,
// the first covered envelopes applied, the simulator restored from
// payload — which replaces all the simulator state those envelopes
// touched, leaving their registry half — and the rest of the journal
// applied behind it. A journal-only replay has covered 0 and no payload;
// a fresh run is one over an empty journal.
func (s *Server) replay(envs []journalLine, covered int, payload []byte) error {
	sc, err := s.cfg.NewScheduler()
	if err != nil {
		return err
	}
	s.queue = &liveQueue{}
	if s.sim, err = sim.New(s.cfg.simConfig(s.queue, sc)); err != nil {
		return err
	}
	s.sim.SetRetireHook(s.onRetire)
	s.sim.SetRoundTimingHook(s.onRound)
	s.entries, s.byIndex, s.nextID = make(map[int64]*jobEntry), nil, 1
	s.completed, s.cancelledN, s.lastSnapTick = 0, 0, 0
	s.info.Resumed, s.info.CompletedRestored = false, 0
	applyAll := func(envs []journalLine) error {
		for _, env := range envs {
			if err := s.apply(env); err != nil {
				return fmt.Errorf("serve: journal %s line %d: %w", s.cfg.JournalPath, env.line, err)
			}
		}
		return nil
	}
	if err := applyAll(envs[:covered]); err != nil {
		return err
	}
	if payload != nil {
		s.sim.SyncSourceTotal()
		if err := s.sim.Restore(payload); err != nil {
			return err
		}
		for _, t := range s.sim.Tallies() {
			s.finalise(t)
		}
		s.lastSnapTick = s.sim.Tick()
		s.info.Resumed, s.info.CompletedRestored = true, s.completed
	}
	return applyAll(envs[covered:])
}

// apply applies one durable journal envelope to the run. It is the one
// place a submission enters the queue and registry and a cancellation
// reaches the simulator, for a live request, a replicated envelope and
// a recovered one alike. It refuses what a live server cannot journal:
// a record that fails validation, a repeated job id, an arrival before
// the stream tail, a cancel before its job's submission. Loop context
// (or recovery, before the loop).
func (s *Server) apply(env journalLine) error {
	if rec := env.Submit; rec != nil {
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("job %d: %w", rec.JobID, err)
		}
		if s.entries[rec.JobID] != nil {
			return fmt.Errorf("job %d submitted twice", rec.JobID)
		}
		if tail := s.queue.lastArrival(); !s.queue.push(*rec) {
			return fmt.Errorf("job %d arrives at %g, before the stream tail %g", rec.JobID, rec.ArrivalSec, tail)
		}
		e := &jobEntry{id: rec.JobID, simIndex: len(s.byIndex), rec: *rec, cancelAt: math.Inf(1)}
		s.entries[e.id] = e
		s.byIndex = append(s.byIndex, e)
		s.nextID = max(s.nextID, rec.JobID+1)
		return nil
	}
	c := env.Cancel
	e := s.entries[c.JobID]
	if e == nil {
		return fmt.Errorf("cancel of job %d precedes its submission", c.JobID)
	}
	e.cancelAt = math.Min(e.cancelAt, c.AtSec)
	s.sim.CancelAt(e.simIndex, c.AtSec)
	return nil
}

// commit makes one envelope durable, then applies it: journal append
// (flushed, and fsync'd by default), replication log, run. raw is the
// line as the primary wrote it, so a follower's journal stays
// byte-identical; nil marshals env. The journal-first order keeps the
// artifacts consistent on an append failure — an envelope that never
// reached the journal must not enter the run, or a later snapshot would
// claim a prefix the journal does not hold — and losing the journal is
// fatal to the recovery guarantees, so a failed append stops the run.
func (s *Server) commit(env journalLine, raw []byte) error {
	var err error
	if raw == nil {
		raw, err = marshalLine(env)
	}
	if err == nil {
		err = s.journal.appendRaw(raw)
	}
	if err != nil {
		s.runErr = fmt.Errorf("%w: %v", errJournal, err)
		return s.runErr
	}
	s.rep.append(raw)
	if err := s.apply(env); err != nil {
		s.runErr = fmt.Errorf("serve: journal line %d: %w", s.rep.len(), err)
		return s.runErr
	}
	return nil
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

// stepOnce runs one RunStep — due cancellations apply inside it — then
// the snapshot cadence. Decision-latency telemetry streams out per
// round through the simulator's round-timing hook (onRound) while the
// step runs.
func (s *Server) stepOnce() {
	if _, err := s.sim.RunStep(); err != nil {
		s.runErr = err
		return
	}
	if s.cfg.SnapshotEvery > 0 && s.sim.Tick()-s.lastSnapTick >= s.cfg.SnapshotEvery {
		s.lastSnapTick = s.sim.Tick()
		if err := s.persist(); err != nil {
			s.runErr = fmt.Errorf("serve: snapshot: %w", err)
		}
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

// persist writes the service snapshot: the wrapper version, the number
// of journal envelopes the run has applied, and the full simulator
// payload. Atomic via snapshot.WriteFile.
func (s *Server) persist() error {
	s.sim.SyncSourceTotal()
	payload, err := s.sim.Snapshot()
	if err != nil {
		return err
	}
	w := snapshot.NewWriter()
	w.Int(serveStateVersion)
	w.Int(s.rep.len())
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
