package mlfs

import (
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
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md", "results/README.md"} {
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

// TestDocsNameDefinedFlags: every -flag the documents pass to an mlfs-*
// command (a built binary or `go run ./cmd/mlfs-*`) in a code block or
// span must be defined in that command's non-test sources, so deleting
// a flag cannot leave a command behind that fails when copied.
func TestDocsNameDefinedFlags(t *testing.T) {
	defs := regexp.MustCompile(`\b(?:flag|fs)\.[A-Z]\w*\(\s*"([^"]+)"`)
	cmds, err := filepath.Glob("cmd/mlfs-*")
	if err != nil {
		t.Fatal(err)
	}
	flags := make(map[string]map[string]bool) // command -> defined flags
	for _, dir := range cmds {
		defined := map[string]bool{"h": true, "help": true} // the flag package's own
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
	// A command name at a word or path boundary, then its arguments
	// (continuation lines included) up to the first shell operator or
	// comment.
	invocation := regexp.MustCompile("(?:^|[\\s/`(])(mlfs-[a-z]+)[ \t]+([^|&;<>#`]*)")
	flagArg := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md", "results/README.md"} {
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
