package main

import (
	"reflect"
	"testing"
)

// TestJobCountsRejectsNonPositive: -counts goes through parseInts, so a
// zero or negative count is a usage error, not a panic deep in trace
// generation or a figure of empty runs.
func TestJobCountsRejectsNonPositive(t *testing.T) {
	for _, bad := range []string{"-3", "0", "155,0", "x"} {
		if got, err := jobCounts(bad, false); err == nil {
			t.Errorf("-counts %q = %v, want an error", bad, got)
		}
	}
	got, err := jobCounts(" 40,155", true)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{40, 155}; !reflect.DeepEqual(got, want) {
		t.Fatalf("-counts 40,155 = %v, want %v", got, want)
	}
}
