package mlfs

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fusionFreeKernels names, per package, the functions whose every
// product feeding an add or subtract is written float64(x*y), so that no
// architecture's compiler may fuse it into a multiply-add: the batched
// NN kernels and the per-sample paths they must match bit for bit, the
// Adam step, the learner's delayed credit and REINFORCE baseline, the
// MLF-C fit's running sums and per-rate fit, MLF-H's RIAL distances,
// and the admission path that samples a job's record, curve and
// observation noise.
var fusionFreeKernels = map[string][]string{
	"./internal/nn": {
		"mlfs/internal/nn.mulABT",
		"mlfs/internal/nn.mulAB",
		"mlfs/internal/nn.accumGrad",
		"mlfs/internal/nn.(*Adam).Apply",
		"mlfs/internal/nn.(*Adam).step",
		"mlfs/internal/nn.(*Matrix).MulVec",
		"mlfs/internal/nn.(*Matrix).MulVecT",
		"mlfs/internal/nn.(*Net).Backprop",
		"mlfs/internal/nn.(*Policy).AccumReinforce",
		"mlfs/internal/nn.(*Learner).credit",
	},
	"./internal/learncurve": {
		"mlfs/internal/learncurve.fitRate",
		"mlfs/internal/learncurve.(*fitState).fold",
		"mlfs/internal/learncurve.Family.Sample",
		"mlfs/internal/learncurve.(*Curve).ObservedAccuracy",
	},
	"./internal/trace": {
		"mlfs/internal/trace.Generate",
		"mlfs/internal/trace.SampleRecord",
		"mlfs/internal/trace.Materialize",
	},
	"./internal/core": {
		"mlfs/internal/core.(*MLFH).ChooseServer",
		"mlfs/internal/core.(*MLFH).SelectMigrationTask",
	},
}

// fusedOps are the arm64 fused multiply-add mnemonics in Go assembler
// syntax (FMADDD, FMSUBS, FNMADDD, ...).
var fusedOps = []string{"FMADD", "FMSUB", "FNMADD", "FNMSUB"}

// TestNoFusedMultiplyAddInKernels cross-compiles the test binaries of
// the packages in fusionFreeKernels for linux/arm64 — a backend that,
// unlike amd64, fuses x*y + z when the spec allows it — disassembles
// them with go tool objdump and requires every function of
// fusionFreeKernels to be present and free of fused multiply-adds. It needs no network and no
// arm64 machine; a cold build cache makes it take about half a minute.
func TestNoFusedMultiplyAddInKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles test binaries for arm64")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	dir := t.TempDir()
	for pkg, syms := range fusionFreeKernels {
		bin := filepath.Join(dir, filepath.Base(pkg)+".test")
		build := exec.Command(goTool, "test", "-c", "-o", bin, pkg)
		build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0", "GOPROXY=off")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("arm64 build of %s: %v\n%s", pkg, err, out)
		}
		out, err := exec.Command(goTool, "tool", "objdump", "-s", "^mlfs/internal/", bin).Output()
		if err != nil {
			t.Fatalf("objdump of %s: %v", pkg, err)
		}
		fused := fusedPerSymbol(out)
		for _, sym := range syms {
			n, ok := fused[sym]
			if !ok {
				t.Errorf("%s: no symbol %s in the arm64 binary (renamed or inlined?)", pkg, sym)
			} else if n > 0 {
				t.Errorf("%s: %d fused multiply-add instructions on arm64; write each product that feeds an add as float64(x*y)", sym, n)
			}
		}
	}
}

// fusedPerSymbol counts fused multiply-add instructions per function in
// go tool objdump output. Every function that appears is in the map.
func fusedPerSymbol(objdump []byte) map[string]int {
	counts := map[string]int{}
	var sym string
	sc := bufio.NewScanner(bytes.NewReader(objdump))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
			sym, _, _ = strings.Cut(rest, "(SB)")
			counts[sym] += 0
			continue
		}
		for _, f := range strings.Fields(line) {
			for _, op := range fusedOps {
				if strings.HasPrefix(f, op) {
					counts[sym]++
				}
			}
		}
	}
	return counts
}
