package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric
// tables the program prints from in step: same names, same units.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b := loadBenchmarkFile(t)
	var fileE2E, filePL, tabE2E, tabPL []string
	for _, m := range b.EndToEnd {
		fileE2E = append(fileE2E, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		filePL = append(filePL, m.Name+" "+m.Unit)
	}
	for _, d := range endToEnd {
		tabE2E = append(tabE2E, d.name+" "+d.unit)
	}
	for _, d := range perLayer {
		tabPL = append(tabPL, d.name+" "+d.unit)
	}
	if fmt.Sprint(fileE2E) != fmt.Sprint(tabE2E) {
		t.Errorf("end_to_end %v, program prints %v", fileE2E, tabE2E)
	}
	if fmt.Sprint(filePL) != fmt.Sprint(tabPL) {
		t.Errorf("per_layer %v, program prints %v", filePL, tabPL)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if fmt.Sprint(names) != fmt.Sprint(known) {
		t.Errorf("workloads %v, program knows %v", names, known)
	}
}

// TestBenchmarkFileStatesTheLatencyLimit: the goodput limit lives in the
// code and is stated in the serve-mixed entry; they must agree.
func TestBenchmarkFileStatesTheLatencyLimit(t *testing.T) {
	want := fmt.Sprintf("within %g ms", latencyLimitMs)
	for _, w := range loadBenchmarkFile(t).Workloads {
		if w.Name == "serve-mixed" && !strings.Contains(w.Why, want) {
			t.Errorf("serve-mixed why %q does not say %q", w.Why, want)
		}
	}
}

// TestBenchmarkFileBounds checks the bounds BENCHMARK.json may carry:
// at most 0.25 each, and setup_s carries the largest.
func TestBenchmarkFileBounds(t *testing.T) {
	b := loadBenchmarkFile(t)
	var setup, most float64
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s better %q", m.Name, m.Better)
		}
		most = max(most, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if setup != most {
		t.Errorf("setup_s bound %v, largest bound %v", setup, most)
	}
}
