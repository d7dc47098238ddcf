// Command mlfs-report renders the TSV figure data written by mlfs-bench
// into Markdown tables, ready to paste into EXPERIMENTS.md.
//
//	mlfs-report -in results > results/summary.md
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// series is one parsed "## label" block of a TSV figure file.
type series struct {
	label  string
	points [][2]float64
}

// figure is one parsed TSV file.
type figure struct {
	id, header string
	series     []series
}

func parseTSV(path string) (*figure, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fig := &figure{id: strings.TrimSuffix(filepath.Base(path), ".tsv")}
	var cur *series
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "## "):
			fig.series = append(fig.series, series{label: strings.TrimPrefix(line, "## ")})
			cur = &fig.series[len(fig.series)-1]
		case strings.HasPrefix(line, "# "):
			fig.header = strings.TrimPrefix(line, "# ")
		default:
			if cur == nil {
				return nil, fmt.Errorf("%s:%d: data before series header", path, ln+1)
			}
			parts := strings.Split(line, "\t")
			if len(parts) != 2 {
				return nil, fmt.Errorf("%s:%d: want 2 columns, got %d", path, ln+1, len(parts))
			}
			x, err := strconv.ParseFloat(parts[0], 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, ln+1, err)
			}
			y, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, ln+1, err)
			}
			cur.points = append(cur.points, [2]float64{x, y})
		}
	}
	if len(fig.series) == 0 {
		return nil, fmt.Errorf("%s: no series", path)
	}
	return fig, nil
}

// table renders a figure as a Markdown table: one row per series, one
// column per x value.
func table(fig *figure) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", fig.id, fig.header)
	xs := fig.series[0].points
	sb.WriteString("| scheduler |")
	for _, p := range xs {
		fmt.Fprintf(&sb, " %g |", p[0])
	}
	sb.WriteString("\n|---|")
	for range xs {
		sb.WriteString("---|")
	}
	sb.WriteString("\n")
	for _, s := range fig.series {
		fmt.Fprintf(&sb, "| %s |", s.label)
		for _, p := range s.points {
			fmt.Fprintf(&sb, " %.4g |", p[1])
		}
		sb.WriteString("\n")
	}
	sb.WriteString("\n")
	return sb.String()
}

func main() {
	in := flag.String("in", "results", "directory of TSV files from mlfs-bench")
	only := flag.String("only", "", "comma-separated figure ids (default: all)")
	flag.Parse()

	paths, err := filepath.Glob(filepath.Join(*in, "*.tsv"))
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("no TSV files in %s", *in))
	}
	sort.Strings(paths)
	var filter map[string]bool
	if *only != "" {
		filter = map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			filter[strings.TrimSpace(id)] = true
		}
	}
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".tsv")
		if filter != nil && !filter[id] {
			continue
		}
		// The CDF figures have too many x points for a readable table.
		if strings.HasSuffix(id, "a") && (strings.HasPrefix(id, "fig4") || strings.HasPrefix(id, "fig5")) {
			continue
		}
		fig, err := parseTSV(path)
		if err != nil {
			fatal(err)
		}
		fmt.Print(table(fig))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlfs-report:", err)
	os.Exit(1)
}
