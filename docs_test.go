package mlfs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// makeTargets returns the targets the Makefile defines.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):([^=]|$)`).FindAllStringSubmatch(string(b), -1) {
		targets[m[1]] = true
	}
	return targets
}

// codeSnippets returns the fenced code lines and inline code spans of
// a Markdown document; a span may wrap across lines, and a fenced line
// ending in a backslash continues onto the next.
func codeSnippets(doc string) []string {
	var code []string
	var prose strings.Builder
	fenced, continued := false, false
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced, continued = !fenced, false
			continue
		}
		switch {
		case fenced && continued:
			code[len(code)-1] += line
		case fenced:
			code = append(code, line)
		default:
			prose.WriteString(line)
		}
		continued = fenced && strings.HasSuffix(strings.TrimRight(line, "\n"), "\\")
	}
	return append(code, regexp.MustCompile("`[^`]+`").FindAllString(prose.String(), -1)...)
}

// TestDocsNameMakeTargets: every `make <target>` the documents show as
// code must name a target the Makefile defines, so deleting a target
// cannot leave a command behind that fails when copied.
func TestDocsNameMakeTargets(t *testing.T) {
	targets := makeTargets(t)
	if !targets["ci"] || !targets["bench"] {
		t.Fatalf("Makefile parse found %v, want at least ci and bench", targets)
	}
	makeCmd := regexp.MustCompile(`(?:^|[^\w-])make\s+([A-Za-z][\w.-]*)`)
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeSnippets(string(b)) {
			for _, m := range makeCmd.FindAllStringSubmatch(code, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: %q names make target %q, which the Makefile does not define",
						doc, strings.TrimSpace(code), m[1])
				}
			}
		}
	}
}

// docs are the documents the docs tests scan.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md", "results/README.md"}

// cmdFlags returns the flags each cmd/mlfs-* command defines in its
// non-test sources, keyed by command name.
func cmdFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	defs := regexp.MustCompile(`\b(?:flag|fs)\.[A-Z]\w*\(\s*"([^"]+)"`)
	cmds, err := filepath.Glob("cmd/mlfs-*")
	if err != nil {
		t.Fatal(err)
	}
	flags := make(map[string]map[string]bool)
	for _, dir := range cmds {
		defined := make(map[string]bool)
		srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			b, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range defs.FindAllStringSubmatch(string(b), -1) {
				defined[m[1]] = true
			}
		}
		flags[filepath.Base(dir)] = defined
	}
	if !flags["mlfs-bench"]["figure"] || !flags["mlfs-lint"]["checks"] {
		t.Fatalf("flag scan found %v, want at least mlfs-bench -figure and mlfs-lint -checks", flags)
	}
	return flags
}

// TestDocsNameDefinedFlags: every -flag the documents pass to an mlfs-*
// command (a built binary or `go run ./cmd/mlfs-*`) in a code block or
// span must be defined in that command's non-test sources, so deleting
// a flag cannot leave a command behind that fails when copied.
func TestDocsNameDefinedFlags(t *testing.T) {
	flags := cmdFlags(t)
	for _, defined := range flags {
		defined["h"], defined["help"] = true, true // the flag package's own
	}
	// A command name at a word or path boundary, then its arguments
	// (continuation lines included) up to the first shell operator or
	// comment.
	invocation := regexp.MustCompile("(?:^|[\\s/`(])(mlfs-[a-z]+)[ \t]+([^|&;<>#`]*)")
	flagArg := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeSnippets(string(b)) {
			for _, m := range invocation.FindAllStringSubmatch(code, -1) {
				defined, ok := flags[m[1]]
				if !ok {
					continue
				}
				for _, arg := range strings.Fields(m[2]) {
					if f := flagArg.FindStringSubmatch(arg); f != nil && !defined[f[1]] {
						t.Errorf("%s: %q passes -%s to %s, which does not define it",
							doc, strings.TrimSpace(code), f[1], m[1])
					}
				}
			}
		}
	}
}

// TestOperationsFlagTablesComplete: the flag table of OPERATIONS.md §1
// lists exactly the flags mlfs-serve defines, and that of §7 exactly
// those of mlfs-loadgen, so adding or deleting a flag without its row
// fails. A row may name two flags (`-servers`, `-gpus`).
func TestOperationsFlagTablesComplete(t *testing.T) {
	b, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	flags := cmdFlags(t)
	for _, tc := range []struct{ section, cmd string }{
		{"## 1. ", "mlfs-serve"},
		{"## 7. ", "mlfs-loadgen"},
	} {
		listed := flagTable(t, string(b), tc.section)
		defined := flags[tc.cmd]
		for f := range defined {
			if !listed[f] {
				t.Errorf("OPERATIONS.md %q: %s defines -%s, which the table lacks", tc.section, tc.cmd, f)
			}
		}
		for f := range listed {
			if !defined[f] {
				t.Errorf("OPERATIONS.md %q: the table lists -%s, which %s does not define", tc.section, f, tc.cmd)
			}
		}
	}
}

// flagTable returns the flags named in the first column of the table
// rows of the document section whose heading starts with section.
func flagTable(t *testing.T, doc, section string) map[string]bool {
	t.Helper()
	_, body, ok := strings.Cut(doc, "\n"+section)
	if !ok {
		t.Fatalf("OPERATIONS.md has no section %q", section)
	}
	if end := strings.Index(body, "\n## "); end >= 0 {
		body = body[:end]
	}
	flag := regexp.MustCompile("`-([A-Za-z][\\w-]*)`")
	listed := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		for _, m := range flag.FindAllStringSubmatch(cells[1], -1) {
			listed[m[1]] = true
		}
	}
	if len(listed) == 0 {
		t.Fatalf("OPERATIONS.md %q: no flag table found", section)
	}
	return listed
}

// TestDocsNameCommittedResults: every results/<name> data file (.tsv,
// .txt, .json, .log) the documents show as code must be committed, so
// deleting an artifact cannot leave a citation of it behind. A range
// such as `results/fig5a..h.tsv` is shorthand and not checked;
// results/pprof/ is git-ignored profiler output and exempt.
func TestDocsNameCommittedResults(t *testing.T) {
	result := regexp.MustCompile(`(?:^|[^\w/])(results/(?:[\w-]+/)*[\w-]+\.(?:tsv|txt|json|log))\b`)
	seen := 0
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeSnippets(string(b)) {
			for _, m := range result.FindAllStringSubmatch(code, -1) {
				if strings.HasPrefix(m[1], "results/pprof/") {
					continue
				}
				seen++
				if _, err := os.Stat(m[1]); err != nil {
					t.Errorf("%s: %q names %s, which is not committed", doc, strings.TrimSpace(code), m[1])
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("found no results/ citation in the documents; the pattern is broken")
	}
}

// configTypes are the struct type names whose fields the documents cite
// as Type.Field.
var configTypes = map[string]bool{"Config": true, "Options": true, "SchedulerOptions": true}

// configFields returns the fields of every struct type named in
// configTypes in the module's non-test code, keyed both by
// "<package>.<Type>" and by "<Type>" alone (the union over packages).
// Directories holding their own go.mod are other modules and skipped.
func configFields(t *testing.T) map[string]map[string]bool {
	t.Helper()
	fields := make(map[string]map[string]bool)
	add := func(key, field string) {
		if fields[key] == nil {
			fields[key] = make(map[string]bool)
		}
		fields[key][field] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !configTypes[ts.Name.Name] {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						add(f.Name.Name+"."+ts.Name.Name, n.Name)
						add(ts.Name.Name, n.Name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fields["sim.Config"]["StopAtTick"] || !fields["mlfs.Options"]["Trace"] || !fields["SchedulerOptions"]["RLBatch"] {
		t.Fatalf("struct scan found %v, want at least sim.Config.StopAtTick, mlfs.Options.Trace and SchedulerOptions.RLBatch", fields)
	}
	return fields
}

// TestDocsNameDefinedFields: every Config.X, Options.X or
// SchedulerOptions.X the documents show as code — qualified by a
// package (`sim.Config.StopAtTick`) or not (`Config.Source`) — must name
// a field of such a struct in the module's non-test code, so deleting a
// field cannot leave a setting behind that no longer exists.
func TestDocsNameDefinedFields(t *testing.T) {
	fields := configFields(t)
	ref := regexp.MustCompile(`\b(?:(\w+)\.)?(Config|Options|SchedulerOptions)\.([A-Za-z_]\w*)`)
	seen := 0
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeSnippets(string(b)) {
			for _, m := range ref.FindAllStringSubmatch(code, -1) {
				typ := m[2]
				if m[1] != "" {
					typ = m[1] + "." + m[2]
				}
				seen++
				if !fields[typ][m[3]] {
					t.Errorf("%s: %q names %s.%s, but no %s struct in the module has that field",
						doc, strings.TrimSpace(code), typ, m[3], typ)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("found no Config/Options field citation in the documents; the pattern is broken")
	}
}
