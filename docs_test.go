package mlfs

import (
	"os"
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

// codeSnippets returns the fenced code blocks and inline code spans of
// a Markdown document; a span may wrap across lines.
func codeSnippets(doc string) []string {
	var code []string
	var prose strings.Builder
	fenced := false
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			code = append(code, line)
		} else {
			prose.WriteString(line)
		}
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
