package main

import (
	"runtime"
	"testing"
	"time"
)

// TestThreadCPUCountsOnlyThisThread: a thread that spins gains about
// the time it spun; one that sleeps gains next to nothing.
func TestThreadCPUCountsOnlyThisThread(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPU(), time.Now()
	for time.Since(t0) < 50*time.Millisecond {
	}
	spun, wall := threadCPU()-c0, time.Since(t0)
	if spun < 10*time.Millisecond || spun > wall+time.Millisecond {
		t.Errorf("spinning %v used %v of thread CPU", wall, spun)
	}
	c1 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	if slept := threadCPU() - c1; slept > 10*time.Millisecond {
		t.Errorf("sleeping 50ms used %v of thread CPU", slept)
	}
}
