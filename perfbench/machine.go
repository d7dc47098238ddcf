package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// machineInfo is the part of the header that describes the host and
// the code under test.
type machineInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// SourceSHA256 digests the module's Go sources and go.mod files,
	// standing in for the commit when the build carries no VCS stamp.
	SourceSHA256 string `json:"source_sha256"`
}

func describeMachine(root string) machineInfo {
	return machineInfo{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       vcsCommit(),
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func vcsCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// dot-directories such as the build directory) in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// memWatch samples resident set size and live heap every period until
// stopped; its peaks bound one measured phase. RSS is read from
// /proc/self/statm (the kernel's figure, Go runtime overhead and all);
// the heap figure comes from runtime/metrics, which does not stop the
// world.
type memWatch struct {
	stopc   chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	rssPeak uint64
	heapPk  uint64
}

func watchMemory(period time.Duration) *memWatch {
	w := &memWatch{stopc: make(chan struct{}), done: make(chan struct{})}
	w.sample()
	go func() {
		defer close(w.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-w.stopc:
				w.sample()
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func (w *memWatch) sample() {
	rss := residentBytes()
	s := make([]metrics.Sample, len(heapSample))
	copy(s, heapSample)
	metrics.Read(s)
	var heap uint64
	if s[0].Value.Kind() == metrics.KindUint64 {
		heap = s[0].Value.Uint64()
	}
	w.mu.Lock()
	w.rssPeak = max(w.rssPeak, rss)
	w.heapPk = max(w.heapPk, heap)
	w.mu.Unlock()
}

// stop ends sampling and returns the peaks in MB.
func (w *memWatch) stop() (rssMB, heapMB float64) {
	close(w.stopc)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return float64(w.rssPeak) / (1 << 20), float64(w.heapPk) / (1 << 20)
}

// residentBytes reads the current RSS; 0 when /proc is unavailable.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// gcStats is a before/after reading of the collector's counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
	mallocs uint64
	bytes   uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (a gcStats) since(b gcStats) gcStats {
	return gcStats{
		cycles:  a.cycles - b.cycles,
		pauseNs: a.pauseNs - b.pauseNs,
		mallocs: a.mallocs - b.mallocs,
		bytes:   a.bytes - b.bytes,
	}
}

// cpuSteal reads the host-wide steal and total jiffies from /proc/stat
// (zeros where it is unavailable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuSeconds is the user plus system CPU time the process has used so
// far (0 where getrusage is unavailable).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU is the CPU time the calling OS thread has used. Two
// readings compare only while the goroutine holds its thread
// (runtime.LockOSThread). On a guest with paravirtual steal accounting
// it leaves out the time the hypervisor ran other guests.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
