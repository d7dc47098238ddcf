package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder's origin. Parent is 0 for a root span; Req ties
// the spans of one request (batch: the step index; served traffic: the
// client's request number).
type span struct {
	Name       string
	ID, Parent int64
	Req        int64
	Start, End int64
}

// recorder keeps spans in memory for the length of a traced run; they
// are written out once the run ends, so the file I/O never lands inside
// a measured interval. Safe for concurrent use: the served workload
// records from the client lanes and from the server's event loop.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the recorder clock.
func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// reserve hands out a span id before the span ends, so children
// recorded while it is open can name it as their parent.
func (r *recorder) reserve() int64 {
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return id
}

// add records a finished span; a zero ID is assigned here.
func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	if s.ID == 0 {
		r.nextID++
		s.ID = r.nextID
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// snapshot returns the spans recorded so far (callers must have stopped
// every recording goroutine).
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// write stores the spans as tab-separated lines:
// name id parent req start_ns end_ns.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "name\tid\tparent\treq\tstart_ns\tend_ns")
	for _, s := range r.snapshot() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.Name, s.ID, s.Parent, s.Req, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the per-name total of span durations and self time.
type layerTime struct {
	Count       int
	Total, Self time.Duration
	Durations   []float64 // seconds, one per span
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its children cover;
// overlapping children are counted once and child time outside the
// parent's interval is ignored.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Durations = append(lt.Durations, float64(d)/1e9)
		lt.Self += time.Duration(d - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [start, end) the union of ivs covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if lo < cur {
			lo = cur
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}
