package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root describes this benchmark; it must
// name exactly the workloads and metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, want[i])
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s: malformed name or unit in %+v", kind, m)
			}
			if (kind == "end_to_end") != (m.Bound != nil) {
				t.Errorf("%s: %s bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	var layers []metricDef
	for _, d := range perLayer {
		layers = append(layers, d.metricDef)
	}
	same("per_layer", b.PerLayer, layers)

	for _, m := range b.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
}
