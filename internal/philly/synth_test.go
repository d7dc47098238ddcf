package philly

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mlfs/internal/trace"
)

// hashRecords folds every field of the first n records of a fresh
// stream into one FNV-64a digest — the whole-stream identity used by
// the determinism pins below.
func hashRecords(src trace.Source, n int) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(u uint64) { binary.LittleEndian.PutUint64(buf, u); h.Write(buf) }
	src.Reset()
	for i := 0; i < n; i++ {
		r, ok := src.Next()
		if !ok {
			break
		}
		put(uint64(r.JobID))
		put(math.Float64bits(r.ArrivalSec))
		put(uint64(r.GPUs))
		put(uint64(r.Family))
		put(uint64(r.Comm))
		put(uint64(r.Urgency))
		put(math.Float64bits(r.TargetFrac))
		put(math.Float64bits(r.TrainDataMB))
		put(math.Float64bits(r.CommVolPS))
		put(math.Float64bits(r.CommVolWW))
		put(math.Float64bits(r.DeadlineSlackSec))
		put(uint64(r.StopOption))
		if r.AllowDowngrade {
			put(1)
		} else {
			put(0)
		}
		put(uint64(r.Seed))
	}
	return h.Sum64()
}

// TestSyntheticPinned pins the first records of the seed-42 stream and
// a digest over the first thousand. The synthetic workload is part of
// run identity — BenchmarkPhillyScale results are only comparable across
// commits if trace = f(seed, size) never drifts — so any change to the
// sampler, the arrival inversion or the per-record seeding must show up
// here and be called out as a breaking change.
func TestSyntheticPinned(t *testing.T) {
	s := NewSynthetic(SynthConfig{Jobs: 1000, Seed: 42})
	const wantHash = uint64(0x23ffa733038424bc)
	if got := hashRecords(s, 1000); got != wantHash {
		t.Errorf("stream digest = %#x, want %#x", got, wantHash)
	}
	s.Reset()
	r, ok := s.Next()
	if !ok {
		t.Fatal("empty stream")
	}
	if r.JobID != 1 {
		t.Errorf("first JobID = %d, want 1", r.JobID)
	}
	if r.ArrivalSec != 7161.445607148188 {
		t.Errorf("first arrival = %v, want 7161.445607148188", r.ArrivalSec)
	}
	if r.GPUs != 4 || r.Urgency != 8 {
		t.Errorf("first record workload drifted: GPUs=%d Urgency=%d, want 4/8", r.GPUs, r.Urgency)
	}
}

// TestSyntheticDeterminism: equal configs yield equal streams; a
// different seed yields a different stream.
func TestSyntheticDeterminism(t *testing.T) {
	a := NewSynthetic(SynthConfig{Jobs: 500, Seed: 9})
	b := NewSynthetic(SynthConfig{Jobs: 500, Seed: 9})
	for i := 0; i < 500; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("record %d differs between equal seeds:\n%+v\n%+v", i, ra, rb)
		}
	}
	if hashRecords(NewSynthetic(SynthConfig{Jobs: 500, Seed: 9}), 500) ==
		hashRecords(NewSynthetic(SynthConfig{Jobs: 500, Seed: 10}), 500) {
		t.Fatal("seeds 9 and 10 produced identical streams")
	}
}

// TestSyntheticSourceContract: arrivals are nondecreasing and inside
// the window, ids are 1..n in stream order, Reset replays the identical
// sequence, and Record(i) is the random-access view of the stream.
func TestSyntheticSourceContract(t *testing.T) {
	s := NewSynthetic(SynthConfig{Jobs: 300, Seed: 5, DurationSec: 3 * 24 * 3600})
	if s.Len() != 300 || s.Duration() != 3*24*3600 {
		t.Fatalf("Len/Duration = %d/%v", s.Len(), s.Duration())
	}
	var first []trace.Record
	prev := -1.0
	for i := 0; ; i++ {
		r, ok := s.Next()
		if !ok {
			break
		}
		if r.JobID != int64(i+1) {
			t.Fatalf("record %d has JobID %d", i, r.JobID)
		}
		if r.ArrivalSec < prev {
			t.Fatalf("record %d arrival %v before %v", i, r.ArrivalSec, prev)
		}
		if r.ArrivalSec < 0 || r.ArrivalSec > s.Duration() {
			t.Fatalf("record %d arrival %v outside [0, %v]", i, r.ArrivalSec, s.Duration())
		}
		prev = r.ArrivalSec
		first = append(first, r)
	}
	if len(first) != 300 {
		t.Fatalf("streamed %d records, want 300", len(first))
	}
	s.Reset()
	for i := range first {
		r, ok := s.Next()
		if !ok || r != first[i] {
			t.Fatalf("replay diverges at record %d", i)
		}
	}
	for _, i := range []int{0, 7, 150, 299} {
		if s.Record(i) != first[i] {
			t.Fatalf("Record(%d) differs from streamed record", i)
		}
	}
}

// TestSyntheticArrivalInversion: the Newton inversion actually inverts
// the cumulative intensity — Λ(Λ⁻¹(x)) = x to high precision across the
// window, including the flat-λ troughs where Λ' bottoms out at 0.5.
func TestSyntheticArrivalInversion(t *testing.T) {
	mass := cumIntensity(18 * 7 * 24 * 3600)
	for k := 0; k <= 1000; k++ {
		x := float64(k) / 1000 * mass
		tt := invCumIntensity(x)
		if diff := math.Abs(cumIntensity(tt) - x); diff > 1e-6 {
			t.Fatalf("inversion error %v at quantile %d/1000", diff, k)
		}
	}
}

// TestSyntheticDiurnalShape: arrival density follows the diurnal wave —
// the busiest quarter-day bucket should see roughly 3× the jobs of the
// quietest (λ ranges over [0.5, 1.5]).
func TestSyntheticDiurnalShape(t *testing.T) {
	s := NewSynthetic(SynthConfig{Jobs: 20000, Seed: 1, DurationSec: daySec})
	counts := make([]int, 4)
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		q := int(r.ArrivalSec / (daySec / 4))
		if q > 3 {
			q = 3
		}
		counts[q]++
	}
	// λ = 1 + 0.5·sin(2πt/day): quarter 0 averages ~1.32, quarter 2 ~0.68.
	if counts[0] <= counts[2] {
		t.Fatalf("diurnal wave missing: quarter counts %v", counts)
	}
	ratio := float64(counts[0]) / float64(counts[2])
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("peak/trough ratio %v outside [1.5, 2.5]; counts %v", ratio, counts)
	}
}
