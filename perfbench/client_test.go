package main

import (
	"testing"
	"time"
)

func TestScheduleKeepsSubmissionsOrderedOnOneLane(t *testing.T) {
	submits := []time.Duration{0, 10 * time.Millisecond, 10 * time.Millisecond, 990 * time.Millisecond}
	lanes := buildSchedule(submits, 100, 250*time.Millisecond, 3)
	if len(lanes) != 3 {
		t.Fatalf("%d lanes, want 3", len(lanes))
	}
	var got []int
	reads, scrapes := 0, 0
	ids := map[int64]bool{}
	for li, lane := range lanes {
		for i, o := range lane {
			if i > 0 && o.at < lane[i-1].at {
				t.Errorf("lane %d out of order at %d", li, i)
			}
			if ids[o.req] || o.req == 0 {
				t.Errorf("request id %d reused or zero", o.req)
			}
			ids[o.req] = true
			switch o.kind {
			case opSubmit:
				if li != 0 {
					t.Errorf("submission on lane %d", li)
				}
				got = append(got, o.rec)
			case opRead:
				reads++
				if li == 0 {
					t.Errorf("read on the submission lane")
				}
			case opScrape:
				scrapes++
			}
		}
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("submission order %v", got)
		}
	}
	// Reads every 10ms over the 990ms the submissions span, both ends
	// included; scrapes at 250, 500 and 750ms.
	if reads != 100 || scrapes != 3 {
		t.Fatalf("reads %d scrapes %d, want 100 and 3", reads, scrapes)
	}
	// Reads alternate between the two side lanes.
	if d := len(lanes[1]) - len(lanes[2]); d < -1 || d > 1 {
		t.Fatalf("side lanes unbalanced: %d vs %d", len(lanes[1]), len(lanes[2]))
	}
}

func TestScheduleSingleLaneCarriesEverything(t *testing.T) {
	lanes := buildSchedule([]time.Duration{0, 20 * time.Millisecond}, 100, 0, 1)
	if len(lanes) != 1 || len(lanes[0]) != 5 {
		t.Fatalf("got %d lanes, %d ops", len(lanes), len(lanes[0]))
	}
}

func TestLatencyIsChargedFromTheScheduledTime(t *testing.T) {
	r := reqResult{sched: 100 * time.Millisecond, sent: 130 * time.Millisecond, end: 135 * time.Millisecond}
	if got := r.latency(); got != 0.035 {
		t.Fatalf("latency %v, want 0.035 (send was 30ms late)", got)
	}
	if got := r.late(); got != 0.030 {
		t.Fatalf("late %v, want 0.030", got)
	}
}

func TestHistQuantileInterpolatesWithinBucket(t *testing.T) {
	les := []float64{0.001, 0.01, posInf}
	before := []float64{5, 5, 5}
	after := []float64{15, 35, 35} // 10 below 1ms, 20 in (1ms, 10ms]
	if got := histQuantile(les, before, after, 0.5); got < 0.00324 || got > 0.00326 {
		t.Fatalf("p50 %v, want 0.00325", got)
	}
	if got := histQuantile(les, after, after, 0.5); got != 0 {
		t.Fatalf("no observations: %v", got)
	}
}

func TestPromValueMatchesWholeSeriesName(t *testing.T) {
	expo := "# HELP x\nmlfs_ticks_total_extra 9\nmlfs_ticks_total 42\n"
	if v, ok := promValue(expo, "mlfs_ticks_total"); !ok || v != 42 {
		t.Fatalf("got %v %v", v, ok)
	}
}
