// Package lint is a from-scratch, stdlib-only static-analysis framework
// that mechanically enforces the simulator's determinism and epoch-cache
// invariants (DESIGN.md §8). Bit-identical simulation results and the
// reproducibility MLF-RL training depends on rest on conventions no
// compiler checks: map iteration must not feed scheduling decisions
// unsorted, deterministic packages must not read wall clocks or the
// global math/rand source, epoch-guarded load state must only move
// through its designated mutators, float equality must be deliberate,
// goroutines must not write shared state, the snapshot codec must cover
// every mutable field, and every package must carry a package comment
// documenting its role and determinism contract. Each analyzer turns one
// of those conventions into a build failure.
//
// The framework is built directly on go/parser, go/ast, go/types and
// go/importer so go.mod stays dependency-free. Repo packages are loaded
// and type-checked from source through Loader; standard-library imports
// resolve through the stdlib source importer.
//
// Findings can be silenced case-by-case with a suppression directive:
//
//	//mlfs:allow <check>[,<check>...] <one-line reason>
//
// placed on the offending line or on its own line directly above. A file
// outside the built-in deterministic-package registry can opt into the
// determinism analyzers with a top-level //mlfs:deterministic comment
// (the golden-file test fixtures use this).
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DeterministicPaths are the import-path roots of the packages that must
// stay bit-reproducible: every package here (and below it) is subject to
// the mapiter, noclock and sharedcapture analyzers. These are the
// packages a simulation run executes, whose results
// TestResultFingerprints pins bit for bit.
var DeterministicPaths = []string{
	"mlfs/internal/sim",
	"mlfs/internal/sched",
	"mlfs/internal/cluster",
	"mlfs/internal/core",
	"mlfs/internal/baselines",
	"mlfs/internal/nn",
	"mlfs/internal/snapshot",
	"mlfs/internal/trace",
	"mlfs/internal/philly",
	"mlfs/internal/serve",
	"mlfs/internal/learncurve",
	"mlfs/internal/job",
}

// Package is one loaded, parsed and type-checked package. Test files
// (_test.go) are never loaded: the invariants protect production
// simulation code, and tests legitimately use clocks and randomness.
type Package struct {
	Path  string // import path, e.g. mlfs/internal/sim
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// ModuleRoot is the absolute repo root, used to report file paths
	// relative to it.
	ModuleRoot string
	// Deterministic marks packages subject to the determinism-only
	// analyzers: import path under DeterministicPaths, or any file
	// carrying a //mlfs:deterministic directive.
	Deterministic bool
}

// Loader loads repo packages from source with full type information,
// memoising so shared dependencies type-check once. It doubles as the
// types.Importer for intra-module imports; everything else (the standard
// library) is delegated to the stdlib source importer.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// NewLoader builds a loader for the module rooted at moduleRoot.
func NewLoader(moduleRoot string) (*Loader, error) {
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleRoot: root,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// LoadDir loads the package in dir (absolute or relative to the process
// working directory). dir must lie inside the module.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// Import implements types.Importer: module-internal paths load from
// source through this loader, everything else through the stdlib source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")))
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}

	det := isDeterministicPath(path)
	for _, f := range files {
		if hasFileDirective(f, "//mlfs:deterministic") {
			det = true
		}
	}
	p := &Package{
		Path:          path,
		Dir:           dir,
		Fset:          l.Fset,
		Files:         files,
		Types:         tpkg,
		Info:          info,
		ModuleRoot:    l.ModuleRoot,
		Deterministic: det,
	}
	l.pkgs[path] = p
	return p, nil
}

func isDeterministicPath(path string) bool {
	for _, root := range DeterministicPaths {
		if path == root || strings.HasPrefix(path, root+"/") {
			return true
		}
	}
	return false
}

func hasFileDirective(f *ast.File, directive string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, directive) {
				return true
			}
		}
	}
	return false
}

// Expand resolves go-style package patterns to package directories. A
// pattern ending in "/..." walks the tree below its base; anything else
// names one directory. Directories named testdata or vendor, and names
// starting with "." or "_", are skipped, matching the go tool.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		if base, ok := strings.CutSuffix(p, "..."); ok {
			base = strings.TrimSuffix(base, string(filepath.Separator))
			base = strings.TrimSuffix(base, "/")
			if base == "" {
				base = "."
			}
			absBase, err := filepath.Abs(base)
			if err != nil {
				return nil, err
			}
			err = filepath.WalkDir(absBase, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != absBase && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return nil, err
		}
		if !hasGoFiles(abs) {
			return nil, fmt.Errorf("lint: no Go files in %s", p)
		}
		add(abs)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}
