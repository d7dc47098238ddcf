package trace

import "sort"

// Source streams job submissions one record at a time — the ingestion
// interface behind the simulator's Philly-scale runs, where a fully
// materialised []Record (let alone []*job.Job) for millions of
// submissions would dominate peak RSS. The simulator holds at most one
// lookahead record and materialises a job only at its admission tick.
//
// Contract:
//
//   - Next returns records in nondecreasing ArrivalSec order; the
//     simulator rejects a source that violates this (task identity is
//     assigned in stream order, so order is part of run identity).
//   - Reset rewinds to the first record and must reproduce the exact
//     same record sequence — the snapshot layer re-streams a prefix on
//     restore, and determinism tests replay sources from the top.
//   - Len is the total record count (known up front; it sizes the run
//     fingerprint) and Duration the arrival-window length in seconds
//     (it calibrates the default simulation horizon).
//
// Implementations need not be safe for concurrent use; the simulator
// consumes a source from its single run goroutine.
type Source interface {
	Next() (Record, bool)
	Reset()
	Len() int
	Duration() float64
}

// SliceSource adapts a materialised trace to the Source interface — the
// way every materialised trace reaches the simulator, which ingests
// only Sources. It keeps records in a private slice sorted stably by
// arrival, so any trace (CSV loads included) satisfies the
// nondecreasing-arrival contract; for traces already in arrival order —
// everything Generate and the Philly loader produce — the stream is the
// identical record sequence, while an unsorted trace gets its task
// identities in arrival order rather than record order.
type SliceSource struct {
	records []Record
	dur     float64
	next    int
}

// NewSliceSource builds a Source over a copy of the trace's records
// (sorted stably by ArrivalSec; the trace itself is not modified).
func NewSliceSource(t *Trace) *SliceSource {
	s := &SliceSource{dur: t.DurationSec}
	s.records = append(s.records, t.Records...)
	sort.SliceStable(s.records, func(i, k int) bool {
		return s.records[i].ArrivalSec < s.records[k].ArrivalSec
	})
	return s
}

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.next >= len(s.records) {
		return Record{}, false
	}
	r := s.records[s.next]
	s.next++
	return r, true
}

// Reset implements Source.
func (s *SliceSource) Reset() { s.next = 0 }

// Len implements Source.
func (s *SliceSource) Len() int { return len(s.records) }

// Duration implements Source.
func (s *SliceSource) Duration() float64 { return s.dur }
