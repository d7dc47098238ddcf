package loadgen

import (
	"reflect"
	"testing"
)

// TestRecordsDeterministic pins the generator contract the replay
// parity rests on: the workload is a pure function of
// (jobs, seed, duration).
func TestRecordsDeterministic(t *testing.T) {
	a := Records(200, 1, 7200)
	b := Records(200, 1, 7200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (jobs, seed, duration) produced different records")
	}
	if len(a) != 200 {
		t.Fatalf("got %d records, want 200", len(a))
	}
	c := Records(200, 2, 7200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical records")
	}
	for i := 1; i < len(a); i++ {
		if a[i].ArrivalSec < a[i-1].ArrivalSec {
			t.Fatalf("arrivals regress at %d: %g < %g", i, a[i].ArrivalSec, a[i-1].ArrivalSec)
		}
	}
}
