package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mlfs/internal/trace"
)

// Hot-standby replication. The primary exposes its envelope journal as
// a sequenced stream (GET /v1/replicate?from=<seq>); a follower
// (Config.FollowURL) tails that stream, appends every envelope to its
// own journal byte-for-byte, and applies it live through the exact
// code path a live request and journal-replay recovery use. The stream
// interleaves horizon lines carrying the primary's simulation clock;
// the follower never steps its simulator past the last horizon it has
// seen, which is what makes the follower's run a paced journal replay
// rather than a divergent second run:
//
//   - every envelope the primary appends after sequence N carries a
//     stamp (submit arrival / cancel time) at or after the simulation
//     time the primary had when it served sequence N — arrivals are
//     checked against the clock at acceptance and cancel stamps are
//     the clock — and the handler reads (seq, horizon) atomically on
//     the event loop, so a follower whose clock is at most the horizon
//     has already received every event at or before its own clock;
//   - pacing never changes decisions: the follower executes the same
//     serial (submission, step, cancel) stream a batch replay of the
//     same journal executes, so the replay-parity contract extends
//     across promotion — a promoted follower's run is bit-identical to
//     a never-failed primary fed the same submissions.
//
// Replication is asynchronous: an envelope is acknowledged to the
// client once it is durable on the primary, not once a follower has
// it. Killing the primary can therefore lose the acked tail that never
// reached the follower; what the promoted follower serves is exactly
// the prefix its own journal holds, and its oracle contract is defined
// over that journal (the failover chaos test pins this down).

// replicateDefaultWait bounds one long-poll response; the follower
// immediately re-polls, so the bound trades HTTP round-trips against
// how long a dying primary can hold a connection open.
const replicateDefaultWait = 10 * time.Second

// replicatePollEvery is the horizon heartbeat cadence inside one
// long-poll response: even with no new envelopes the primary's clock
// advances, and the follower needs it to keep pace.
const replicatePollEvery = 250 * time.Millisecond

// repLog is the in-memory sequenced copy of the journal: one canonical
// marshaled envelope line per acknowledged mutation, seeded from the
// journal at recovery and appended in lockstep with it afterwards.
// Appends happen only on the event loop; reads come from replicate
// handlers, so access is mutex-guarded. Lines are immutable once
// appended.
type repLog struct {
	mu    sync.Mutex
	lines [][]byte
	wake  chan struct{} // closed and replaced on every append
}

func newRepLog() *repLog {
	return &repLog{wake: make(chan struct{})}
}

// append adds one line and wakes every waiting reader.
func (l *repLog) append(b []byte) {
	l.mu.Lock()
	l.lines = append(l.lines, b)
	close(l.wake)
	l.wake = make(chan struct{})
	l.mu.Unlock()
}

// seed bulk-loads the journal's recovered envelopes (startup only,
// before any reader exists).
func (l *repLog) seed(lines [][]byte) {
	l.mu.Lock()
	l.lines = lines
	l.mu.Unlock()
}

// since returns the lines at and after from, the total count, and the
// wake channel that will close on the next append — captured under one
// lock so a reader that sees no new lines cannot miss the wakeup for a
// concurrent append.
func (l *repLog) since(from int) (lines [][]byte, total int, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < len(l.lines) {
		lines = l.lines[from:]
	}
	return lines, len(l.lines), l.wake
}

func (l *repLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// repLine is one line of the replication stream: either a journal
// envelope (submit or cancel, byte-identical to the journal line) or a
// horizon heartbeat carrying the primary's simulation clock and its
// total envelope count.
type repLine struct {
	Submit  *trace.Record `json:"submit,omitempty"`
	Cancel  *CancelRecord `json:"cancel,omitempty"`
	Horizon *float64      `json:"horizon,omitempty"`
	Next    *int          `json:"next,omitempty"`
}

// replicationHorizon is the simulation time this server can vouch for:
// every envelope it will ever append after the current sequence is
// stamped at or after it. On a primary that is its own clock; on a
// follower (chained replication) it is the horizon received upstream —
// the follower's clock trails it, and so do the stamps of everything
// it has yet to relay. Loop context.
func (s *Server) replicationHorizon() float64 {
	if s.follower {
		return s.followHorizon
	}
	return s.sim.Now()
}

// handleReplicate serves the journal stream: every envelope from the
// requested sequence, then a horizon line, flushed; then it long-polls
// for more until the response window closes. The handler holds no
// loop state between grabs — each (lines, horizon) pair is read in one
// event-loop call, which is the atomicity the follower's pacing rule
// depends on.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad from %q: want a sequence number >= 0", q)
			return
		}
		from = n
	}
	if s.cfg.JournalPath == "" {
		writeErr(w, http.StatusPreconditionFailed, "replication needs a journal (-journal)")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	deadline := time.NewTimer(s.replicateWait)
	defer deadline.Stop()
	heartbeat := time.NewTicker(replicatePollEvery)
	defer heartbeat.Stop()
	enc := json.NewEncoder(w)
	for {
		var lines [][]byte
		var total int
		var wake <-chan struct{}
		var horizon float64
		err := s.do(func() {
			lines, total, wake = s.rep.since(from)
			horizon = s.replicationHorizon()
		})
		if err != nil {
			return // loop gone; the follower reconnects and finds out
		}
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return
			}
		}
		from = total
		if err := enc.Encode(repLine{Horizon: &horizon, Next: &total}); err != nil {
			return
		}
		flusher.Flush()
		select {
		case <-wake:
		case <-heartbeat.C:
		case <-r.Context().Done():
			return
		case <-deadline.C:
			return
		case <-s.loopDone:
			return
		}
	}
}

// applyReplicated applies one batch of replicated envelopes and the
// horizon that followed them. Loop context. Each envelope takes the path
// a live request takes (commit): the raw line is appended to the local
// journal byte-for-byte, mirrored into the replication log (so this
// follower can itself be tailed) and applied to the run.
func (s *Server) applyReplicated(raws [][]byte, envs []journalLine, horizon float64, primarySeq int) error {
	if !s.follower {
		return nil // promoted mid-flight; drop the stale tail
	}
	for i, env := range envs {
		if err := s.commit(env, raws[i]); err != nil {
			return err
		}
		s.repApplied++
	}
	if horizon > s.followHorizon {
		s.followHorizon = horizon
	}
	if primarySeq > s.repPrimarySeq {
		s.repPrimarySeq = primarySeq
	}
	if localSeq := s.rep.len(); primarySeq < localSeq && primarySeq > 0 {
		// The primary holds fewer envelopes than we do: these artifacts
		// are from different lineages (or the operator pointed a promoted
		// writer back at a stale primary). Refusing loudly beats silently
		// forking history.
		s.runErr = fmt.Errorf("serve: primary reports %d journal envelopes but this follower holds %d — not a prefix of the primary's journal",
			primarySeq, localSeq)
		return s.runErr
	}
	return nil
}

// promote turns a follower into the writer. Loop context. The horizon
// bound is lifted, timescale pacing re-anchors at the promotion point,
// and every mutating endpoint starts accepting. Idempotent; returns
// whether this call performed the promotion.
func (s *Server) promoteLocked() bool {
	if !s.follower {
		return false
	}
	s.follower = false
	s.followHorizon = math.Inf(1)
	s.anchored = false
	s.promoteOnce.Do(func() { close(s.promotec) })
	return true
}

// followLoop is the follower's tailer goroutine: it long-polls the
// primary's /v1/replicate, applies batches on the event loop, retries
// with backoff across primary outages, and — when Config.PromoteOnLoss
// is set — promotes itself after the primary has been unreachable for
// that long. Exits on promotion or server shutdown.
func (s *Server) followLoop() {
	const (
		backoffMin = 100 * time.Millisecond
		backoffMax = 2 * time.Second
	)
	client := &http.Client{}
	backoff := backoffMin
	lastContact := wallNow()
	for {
		select {
		case <-s.promotec:
			return
		case <-s.loopDone:
			return
		default:
		}
		err := s.followOnce(client)
		if err == nil {
			backoff = backoffMin
			lastContact = wallNow()
			continue
		}
		if err == errServerClosed || err == errPromoted {
			return
		}
		if s.cfg.PromoteOnLoss > 0 && wallNow().Sub(lastContact) >= s.cfg.PromoteOnLoss {
			s.do(func() { s.promoteLocked() })
			return
		}
		select {
		case <-time.After(backoff):
		case <-s.promotec:
			return
		case <-s.loopDone:
			return
		}
		if backoff *= 2; backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// errPromoted stops the tailer after a promotion raced a poll.
var errPromoted = fmt.Errorf("serve: promoted")

// followOnce performs one long-poll cycle: connect at the current
// local sequence, stream lines, apply envelope batches at each horizon
// mark. Returns nil when the poll window closed cleanly (reconnect
// immediately) and an error for anything that should back off.
func (s *Server) followOnce(client *http.Client) error {
	var from int
	var promoted bool
	if err := s.do(func() { from = s.rep.len(); promoted = !s.follower }); err != nil {
		return errServerClosed
	}
	if promoted {
		return errPromoted
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*s.replicateWait+15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		fmt.Sprintf("%s/v1/replicate?from=%d", s.cfg.FollowURL, from), nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: primary %s: %s", s.cfg.FollowURL, resp.Status)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), journalMaxLine)
	var raws [][]byte
	var envs []journalLine
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l repLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("serve: replication stream: %w", err)
		}
		switch {
		case l.Horizon != nil:
			horizon := *l.Horizon
			next := 0
			if l.Next != nil {
				next = *l.Next
			}
			batchRaws, batchEnvs := raws, envs
			raws, envs = nil, nil
			var applyErr error
			err := s.do(func() { applyErr = s.applyReplicated(batchRaws, batchEnvs, horizon, next) })
			if err != nil {
				return errServerClosed
			}
			if applyErr != nil {
				return applyErr
			}
		case l.Submit != nil || l.Cancel != nil:
			raws = append(raws, append([]byte(nil), sc.Bytes()...))
			envs = append(envs, journalLine{Submit: l.Submit, Cancel: l.Cancel})
		default:
			return fmt.Errorf("serve: replication stream: line is neither envelope nor horizon")
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return nil
}
