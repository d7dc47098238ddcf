package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlfs/internal/serve"
	"mlfs/internal/trace"
)

// The benchmark's open-loop client. Every request has a scheduled send
// time fixed before the phase starts; a lane sends it at that time, or
// at once if the lane is already late, and its latency is charged from
// the scheduled time — so a stall on the server also counts against the
// requests it delayed, instead of silently slowing the client down.

type opKind uint8

const (
	opSubmit opKind = iota // POST /v1/jobs
	opRead                 // GET /v1/jobs/{id}
	opScrape               // GET /metrics (traced phases only)
)

var opNames = [...]string{opSubmit: "submit", opRead: "read", opScrape: "scrape"}

// op is one scheduled request.
type op struct {
	kind opKind
	at   time.Duration // scheduled send time, from the phase origin
	rec  int           // submit: index into the phase's records
	req  int64         // request number, shared by the request's spans
}

// buildSchedule lays out one phase over lanes connections. Submissions
// keep their order on lane 0: the service refuses an arrival stamp
// behind the stream tail, so two submissions must never race. Reads
// arrive at a fixed rate over the span of the submissions, and scrapes
// (scrapeEvery > 0) at a fixed period; both are dealt round-robin to
// the remaining lanes, or share lane 0 when there is only one. Each
// lane's list is in send order.
func buildSchedule(submitAt []time.Duration, readRate float64, scrapeEvery time.Duration, lanes int) [][]op {
	if lanes < 1 {
		lanes = 1
	}
	out := make([][]op, lanes)
	var req int64
	next := func() int64 { req++; return req }
	var span time.Duration
	for i, at := range submitAt {
		out[0] = append(out[0], op{kind: opSubmit, at: at, rec: i, req: next()})
		span = max(span, at)
	}
	var side []op
	if readRate > 0 {
		gap := time.Duration(float64(time.Second) / readRate)
		for at := time.Duration(0); at <= span; at += gap {
			side = append(side, op{kind: opRead, at: at})
		}
	}
	if scrapeEvery > 0 {
		for at := scrapeEvery; at <= span; at += scrapeEvery {
			side = append(side, op{kind: opScrape, at: at})
		}
	}
	sortOps(side)
	for i := range side {
		side[i].req = next()
		lane := 0
		if lanes > 1 {
			lane = 1 + i%(lanes-1)
		}
		out[lane] = append(out[lane], side[i])
	}
	for _, l := range out {
		sortOps(l)
	}
	return out
}

// sortOps orders by send time, stably.
func sortOps(ops []op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
}

var posInf = math.Inf(1)

// outcomeClass buckets a response for the per-endpoint tallies.
type outcomeClass uint8

const (
	classOK outcomeClass = iota
	classConflict
	classShed
	classServer
	classTransport
	classOther
	numClasses
)

var classNames = [...]string{"ok", "conflict_409", "shed_429", "server_5xx", "transport", "other"}

func classify(code int, err error) outcomeClass {
	switch {
	case err != nil:
		return classTransport
	case code == http.StatusConflict:
		return classConflict
	case code == http.StatusTooManyRequests:
		return classShed
	case code >= 500:
		return classServer
	case code >= 200 && code < 300:
		return classOK
	}
	return classOther
}

// result of one request. Times are offsets from the phase origin.
type reqResult struct {
	kind             opKind
	sched, sent, end time.Duration
	class            outcomeClass
	simTime          float64 // scrape: mlfs_sim_time_seconds
}

func (r reqResult) latency() float64 { return (r.end - r.sched).Seconds() }
func (r reqResult) late() float64    { return (r.sent - r.sched).Seconds() }

// phaseClient sends one phase's schedule.
type phaseClient struct {
	base    string
	records []trace.Record // submit payloads, arrival already stamped
	seed    int64
	rec     *recorder // nil when untraced

	mu    sync.Mutex
	acked []int64 // ids acknowledged so far; reads pick among them
}

func newLaneClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// run sends every lane's ops, one connection per lane, starting at
// origin, and returns every request's result.
func (c *phaseClient) run(lanes [][]op, origin time.Time) []reqResult {
	results := make([][]reqResult, len(lanes))
	var wg sync.WaitGroup
	for i, lane := range lanes {
		wg.Add(1)
		go func(i int, lane []op) {
			defer wg.Done()
			hc := newLaneClient()
			defer hc.CloseIdleConnections()
			rng := rand.New(rand.NewSource(c.seed*1000 + int64(i)))
			for _, o := range lane {
				if d := time.Until(origin.Add(o.at)); d > 0 {
					time.Sleep(d)
				}
				results[i] = append(results[i], c.send(hc, rng, o, origin))
			}
		}(i, lane)
	}
	wg.Wait()
	var all []reqResult
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

func (c *phaseClient) send(hc *http.Client, rng *rand.Rand, o op, origin time.Time) reqResult {
	var (
		req  *http.Request
		err  error
		name string
	)
	switch o.kind {
	case opSubmit:
		var body []byte
		if body, err = json.Marshal(submitRequest(c.records[o.rec])); err == nil {
			req, err = http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
		}
		name = "serve.submit"
	case opRead:
		c.mu.Lock()
		var id int64
		if len(c.acked) > 0 {
			id = c.acked[rng.Intn(len(c.acked))]
		}
		c.mu.Unlock()
		req, err = http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+strconv.FormatInt(id, 10), nil)
		name = "serve.status"
	case opScrape:
		req, err = http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
		name = "serve.metrics"
	}
	r := reqResult{kind: o.kind, sched: o.at}
	sent := time.Now()
	r.sent = sent.Sub(origin)
	code := 0
	var payload []byte
	if err == nil {
		var resp *http.Response
		if resp, err = hc.Do(req); err == nil {
			code = resp.StatusCode
			payload, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	end := time.Now()
	r.end = end.Sub(origin)
	r.class = classify(code, err)
	if r.class == classOK {
		switch o.kind {
		case opSubmit:
			var sr serve.SubmitResponse
			if json.Unmarshal(payload, &sr) == nil && sr.ID > 0 {
				c.mu.Lock()
				c.acked = append(c.acked, sr.ID)
				c.mu.Unlock()
			} else {
				r.class = classOther
			}
		case opScrape:
			v, ok := promValue(string(payload), "mlfs_sim_time_seconds")
			if !ok {
				r.class = classOther
			}
			r.simTime = v
		}
	}
	if c.rec != nil {
		at := func(d time.Duration) int64 { return int64(origin.Sub(c.rec.origin) + d) }
		root := c.rec.reserve()
		c.rec.add(span{Name: name, Parent: root, Req: o.req, Start: at(r.sent), End: at(r.end)})
		c.rec.add(span{Name: "loadgen." + opNames[o.kind], ID: root, Req: o.req, Start: at(r.sched), End: at(r.end)})
	}
	return r
}

// submitRequest is the API body that reproduces rec exactly, arrival
// stamp included.
func submitRequest(r trace.Record) serve.SubmitRequest {
	allow, arrival := r.AllowDowngrade, r.ArrivalSec
	return serve.SubmitRequest{
		GPUs:             r.GPUs,
		Family:           r.Family.String(),
		Comm:             r.Comm.String(),
		Urgency:          r.Urgency,
		TargetFrac:       r.TargetFrac,
		TrainDataMB:      r.TrainDataMB,
		CommVolPSMB:      r.CommVolPS,
		CommVolWWMB:      r.CommVolWW,
		DeadlineSlackSec: r.DeadlineSlackSec,
		StopOption:       r.StopOption.String(),
		AllowDowngrade:   &allow,
		Seed:             r.Seed,
		ArrivalSec:       &arrival,
	}
}

// tally counts one endpoint's requests by outcome.
type tally struct {
	Attempted int            `json:"attempted"`
	ByClass   map[string]int `json:"by_class"`
}

func tallies(rs []reqResult) map[string]*tally {
	out := map[string]*tally{}
	for _, r := range rs {
		t := out[opNames[r.kind]]
		if t == nil {
			t = &tally{ByClass: map[string]int{}}
			out[opNames[r.kind]] = t
		}
		t.Attempted++
		t.ByClass[classNames[r.class]]++
	}
	return out
}

// promValue reads one unlabelled series from a Prometheus exposition.
func promValue(expo, series string) (float64, bool) {
	for _, line := range strings.Split(expo, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if ok && name == series {
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// promHistogram reads the cumulative buckets of histogram name.
func promHistogram(expo, name string) (les, counts []float64, err error) {
	prefix := name + `_bucket{le="`
	for _, line := range strings.Split(expo, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		le, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			return nil, nil, fmt.Errorf("malformed bucket line %q", line)
		}
		bound, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err = posInf, nil
		}
		if err != nil {
			return nil, nil, err
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, nil, err
		}
		les, counts = append(les, bound), append(counts, n)
	}
	if len(les) == 0 {
		return nil, nil, fmt.Errorf("no histogram %s", name)
	}
	return les, counts, nil
}

// histQuantile estimates quantile q of the observations between two
// scrapes of one histogram (cumulative counts), interpolating linearly
// inside the bucket that holds it, as Prometheus does.
func histQuantile(les, before, after []float64, q float64) float64 {
	total := after[len(after)-1] - before[len(before)-1]
	if total <= 0 {
		return 0
	}
	target := q * total
	lo, prev := 0.0, 0.0
	for i, le := range les {
		c := after[i] - before[i]
		if c >= target {
			if le == posInf {
				return lo
			}
			return lo + (le-lo)*(target-prev)/(c-prev)
		}
		lo, prev = le, c
	}
	return lo
}
