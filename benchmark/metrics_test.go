package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json from drifting away from the
// tables in metrics.go: same workloads, same metrics in the same order, same
// units, directions and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkJSON
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, harness says %d", f.RunSeconds, runSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := f.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), metrics.go has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %q is described but not runnable", w.Name)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, metrics.go has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in metrics.go", kind, m.Name, g.Bound, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd, true)
	compare("per_layer", f.PerLayer, perLayer, false)
}

// TestTablesFitTheContract checks the limits the driver refuses a
// BENCHMARK.json over.
func TestTablesFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	largest := 0.0
	for _, m := range endToEnd {
		largest = max(largest, m.Bound)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
	}
	if s := metricByName(endToEnd, "setup_s"); s.Unit != "s" || s.Better != "lower" || s.Bound != largest {
		t.Errorf("setup_s must be in s, lower-is-better, with the largest bound: %+v", *s)
	}
}
