package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testSteps runs each workload at 1/50 of the length it was sized with
// (120 sim cells, 1000 experiment runs, 1500 service steps).
var testSteps = map[string]int{"sim-dtbl": 2, "sim-cdp": 2, "experiments-tiny": 20, "service-mix": 30}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			o := runOptions{seed: 1, seconds: 600, traced: traced, workdir: dir, setupRuns: 1, maxSteps: testSteps[w.name],
				traceOut: filepath.Join(dir, "trace.json")}
			var out bytes.Buffer
			if err := run(context.Background(), w, o, &out); err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEnd
			if traced {
				want = nil
				for _, d := range perLayer {
					want = append(want, d.metricDef)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w.name, traced, d.Name, m, d.Unit)
				}
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.Name) + ` +\S+ ` + regexp.QuoteMeta(d.Unit) + `$`)
				if !line.MatchString(out.String()) {
					t.Errorf("%s traced=%t: no printed line for %s in %s", w.name, traced, d.Name, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if traced {
				checkPerfetto(t, o.traceOut)
			}
		}
	}
}

// checkPerfetto parses a trace file and checks its event phases.
func checkPerfetto(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s has no events", path)
	}
	for _, ev := range doc.TraceEvents {
		if !slices.Contains([]string{"M", "X", "b", "e", "n", "i", "C"}, ev.Ph) {
			t.Fatalf("%s: event phase %q", path, ev.Ph)
		}
	}
}
