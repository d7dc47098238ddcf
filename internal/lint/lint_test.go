package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader amortises standard-library source type-checking across
// all tests in the package (the loader memoises per instance).
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loaderVal, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loaderVal
}

func loadTestdata(t *testing.T, name string) *Package {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type wantKey struct {
	file string
	line int
}

// parseWants collects the // want "regexp" expectations of a fixture.
func parseWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := wantKey{relFile(pkg.ModuleRoot, pos.Filename), pos.Line}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// goldenMismatches runs the analyzers over the fixture and returns one
// problem string per unexpected finding or unmatched want.
func goldenMismatches(t *testing.T, pkg *Package, analyzers []*Analyzer) []string {
	t.Helper()
	findings, _ := RunPackage(pkg, analyzers)
	wants := parseWants(t, pkg)
	var problems []string
	for _, d := range findings {
		key := wantKey{d.File, d.Line}
		matched := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				if len(wants[key]) == 0 {
					delete(wants, key)
				}
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected finding: %s", d))
		}
	}
	for key, res := range wants {
		for _, re := range res {
			problems = append(problems, fmt.Sprintf("%s:%d: expected finding matching %q, got none", key.file, key.line, re))
		}
	}
	return problems
}

var goldenFixtures = []struct {
	analyzer      string
	dir           string
	minSuppressed int
}{
	{"mapiter", "mapiter", 1},
	{"noclock", "noclock", 1},
	{"epochguard", "epochguard", 1},
	{"floatcmp", "floatcmp", 1},
	{"sharedcapture", "sharedcapture", 1},
	{"pkgdoc", "pkgdoc", 0},
	{"snapstate", "snapstate", 1},
	{"detflow", "detflow", 2},
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

// TestGolden checks every analyzer against its golden fixture: each
// want-annotated line must produce exactly one matching finding, every
// finding must be expected, and the fixture's //mlfs:allow sites must be
// suppressed rather than reported.
func TestGolden(t *testing.T) {
	for _, tc := range goldenFixtures {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadTestdata(t, tc.dir)
			for _, p := range goldenMismatches(t, pkg, []*Analyzer{analyzerByName(t, tc.analyzer)}) {
				t.Error(p)
			}
			_, suppressed := RunPackage(pkg, []*Analyzer{analyzerByName(t, tc.analyzer)})
			if len(suppressed) < tc.minSuppressed {
				t.Errorf("suppressed = %d, want >= %d (the //mlfs:allow fixture sites must register as suppressed)", len(suppressed), tc.minSuppressed)
			}
		})
	}
}

// TestGoldenFailsWhenAnalyzerDisabled proves each fixture actually
// depends on its analyzer: with the analyzer removed from the run, the
// fixture's expectations must go unmatched. This is the guard against an
// analyzer silently becoming a no-op.
func TestGoldenFailsWhenAnalyzerDisabled(t *testing.T) {
	for _, tc := range goldenFixtures {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadTestdata(t, tc.dir)
			var rest []*Analyzer
			for _, a := range Analyzers() {
				if a.Name != tc.analyzer {
					rest = append(rest, a)
				}
			}
			if problems := goldenMismatches(t, pkg, rest); len(problems) == 0 {
				t.Errorf("fixture %s passes with analyzer %s disabled; it no longer tests anything", tc.dir, tc.analyzer)
			}
		})
	}
}

// TestLintCleanRepo is the self-check gate: every analyzer over every
// production package — the module root, ./internal/..., ./cmd/... and
// ./examples/... — must report zero unsuppressed diagnostics and zero
// stale //mlfs:allow directives, so the repo can never merge lint-dirty.
// The whole surface is loaded into a single Run because the module
// analyzers (snapstate, detflow) need the cross-package call graph.
func TestLintCleanRepo(t *testing.T) {
	l := testLoader(t)
	dirs, err := l.Expand([]string{
		l.ModuleRoot,
		filepath.Join(l.ModuleRoot, "internal") + "/...",
		filepath.Join(l.ModuleRoot, "cmd") + "/...",
		filepath.Join(l.ModuleRoot, "examples") + "/...",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("pattern expansion found only %d packages: %v", len(dirs), dirs)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	res := Run(pkgs, Analyzers())
	for _, d := range res.Findings {
		t.Errorf("%s", d)
	}
	for _, d := range res.StaleAllows {
		t.Errorf("%s", d)
	}
	t.Logf("linted %d packages, %d findings, %d suppressed", len(pkgs), len(res.Findings), len(res.Suppressed))
}

// TestDeterministicRegistry pins the package set the determinism
// analyzers cover; shrinking it should be a conscious decision.
func TestDeterministicRegistry(t *testing.T) {
	for _, path := range []string{
		"mlfs/internal/sim", "mlfs/internal/sched", "mlfs/internal/cluster",
		"mlfs/internal/core", "mlfs/internal/core/mlfc", "mlfs/internal/core/mlfrl",
		"mlfs/internal/baselines",
	} {
		if !isDeterministicPath(path) {
			t.Errorf("%s must be in the deterministic registry", path)
		}
	}
	for _, path := range []string{"mlfs/internal/viz", "mlfs/internal/lint", "mlfs"} {
		if isDeterministicPath(path) {
			t.Errorf("%s must not be in the deterministic registry", path)
		}
	}
}

func TestAnalyzersByName(t *testing.T) {
	all, err := AnalyzersByName("")
	if err != nil || len(all) != 8 {
		t.Fatalf("AnalyzersByName(\"\") = %d analyzers, err %v; want 8, nil", len(all), err)
	}
	two, err := AnalyzersByName("mapiter, floatcmp")
	if err != nil || len(two) != 2 {
		t.Fatalf("subset selection failed: %d, %v", len(two), err)
	}
	if _, err := AnalyzersByName("nosuchcheck"); err == nil {
		t.Fatal("unknown check name must error")
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	l := testLoader(t)
	dirs, err := l.Expand([]string{filepath.Join(l.ModuleRoot, "internal", "lint") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand must skip testdata, got %s", d)
		}
	}
	if len(dirs) != 1 {
		t.Errorf("expected exactly the lint package, got %v", dirs)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "noclock", File: "internal/sim/sim.go", Line: 7, Column: 3, Message: "m"}
	if got := d.String(); got != "internal/sim/sim.go:7:3: noclock: m" {
		t.Fatalf("String() = %q", got)
	}
}
