package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// update regenerates the golden Perfetto snapshot:
//
//	go test ./internal/trace/ -run Perfetto -update
var update = flag.Bool("update", false, "rewrite the golden Perfetto file")

// runFullyTraced runs a small deterministic parent-child program with every
// trace hook attached plus sampling and attribution on.
func runFullyTraced(t *testing.T) *Recorder {
	t.Helper()
	cfg := config.SmallTest()
	cfg.DTBLLaunchLatency = 25
	rec := NewRecorder()
	opts := gpu.Options{
		Config:      &cfg,
		Scheduler:   core.NewRoundRobin(),
		Model:       gpu.DTBL,
		SampleEvery: 64,
		Attribution: true,
	}
	rec.Attach(&opts)
	sim := gpu.MustNew(opts)
	child := isa.NewKernel("child").Add(isa.NewTB(32).LoadSeq(0, 2).Compute(5).Build()).Build()
	kb := isa.NewKernel("host")
	for i := 0; i < 4; i++ {
		kb.Add(isa.NewTB(32).LoadSeq(0, 2).Compute(2).Launch(0, child).Compute(10).Build())
	}
	if err := sim.LaunchHost(kb.Build()); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	rec.FinishRun()
	return rec
}

// TestPerfettoGolden snapshots the full Perfetto export byte-for-byte: the
// simulator is deterministic and JSON map keys marshal sorted, so any drift
// is a real behaviour change.
func TestPerfettoGolden(t *testing.T) {
	rec := runFullyTraced(t)
	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "perfetto_tiny.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Perfetto output drifted from %s (rerun with -update if intended)", path)
	}
}

// TestPerfettoSchema validates the export against the trace_event contract:
// parseable JSON, only legal phases, required fields per phase, balanced
// async spans, and numeric counter values.
func TestPerfettoSchema(t *testing.T) {
	rec := runFullyTraced(t)
	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	asyncDepth := make(map[float64]int)
	for i, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event %d missing %q: %v", i, k, e)
			}
		}
		switch ph {
		case "M": // metadata
		case "X":
			if d, ok := e["dur"].(float64); !ok || d <= 0 {
				t.Errorf("complete event %d without positive dur: %v", i, e)
			}
		case "b":
			asyncDepth[e["id"].(float64)]++
		case "e":
			asyncDepth[e["id"].(float64)]--
		case "n":
			if _, ok := e["id"]; !ok {
				t.Errorf("async instant %d without id: %v", i, e)
			}
		case "i":
			if e["s"] != "t" {
				t.Errorf("instant event %d without thread scope: %v", i, e)
			}
		case "C":
			args, ok := e["args"].(map[string]any)
			if !ok || len(args) == 0 {
				t.Fatalf("counter event %d without args: %v", i, e)
			}
			for k, v := range args {
				if _, ok := v.(float64); !ok {
					t.Errorf("counter event %d series %q is not numeric: %v", i, k, v)
				}
			}
		default:
			t.Errorf("event %d has unknown phase %q", i, ph)
		}
	}
	for id, depth := range asyncDepth {
		if depth != 0 {
			t.Errorf("async span id %v unbalanced (depth %d)", id, depth)
		}
	}
}

// TestBlockAndSampleEvents checks the new hooks' event shapes: every
// dispatch has a matching completion with a sane duration, and samples
// carry counters.
func TestBlockAndSampleEvents(t *testing.T) {
	rec := runFullyTraced(t)
	dispatched, completed, samples := 0, 0, 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case TBDispatched:
			dispatched++
		case TBCompleted:
			completed++
			if e.Dur == 0 || e.Dur > e.Cycle {
				t.Errorf("TBCompleted with implausible Dur: %+v", e)
			}
			if e.SMX < 0 || e.TB < 0 {
				t.Errorf("TBCompleted missing placement: %+v", e)
			}
		case SampleTaken:
			samples++
			if e.Sample == nil {
				t.Fatalf("SampleTaken without payload: %+v", e)
			}
			if e.Sample.Cycle != e.Cycle {
				t.Errorf("sample cycle %d != event cycle %d", e.Sample.Cycle, e.Cycle)
			}
		}
	}
	if dispatched == 0 || dispatched != completed {
		t.Errorf("dispatched %d vs completed %d, want equal and nonzero", dispatched, completed)
	}
	if samples == 0 {
		t.Error("no samples recorded with SampleEvery set")
	}
}

// TestFinishRunSkipsUnarrivedKernels: a run cut off by MaxCycles before a
// child's launch latency elapses must not fabricate a KernelArrived event
// dated after the end of the run.
func TestFinishRunSkipsUnarrivedKernels(t *testing.T) {
	cfg := config.SmallTest()
	cfg.DTBLLaunchLatency = 10000 // far beyond the cutoff
	rec := NewRecorder()
	sim := gpu.MustNew(gpu.Options{
		Config:      &cfg,
		Scheduler:   core.NewRoundRobin(),
		Model:       gpu.DTBL,
		MaxCycles:   200,
		TraceKernel: rec.KernelHook(),
	})
	child := isa.NewKernel("late-child").Add(isa.NewTB(32).Compute(2).Build()).Build()
	host := isa.NewKernel("host").
		Add(isa.NewTB(32).Compute(2).Launch(0, child).Compute(2).Build()).Build()
	if err := sim.LaunchHost(host); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("expected a MaxCycles error with an unarrivable child")
	}
	rec.FinishRun()
	end := sim.Cycle()
	sawLateLaunch := false
	for _, e := range rec.Events() {
		if e.Cycle > end {
			t.Errorf("event beyond the end of the run: %+v", e)
		}
		if e.Name == "late-child" {
			switch e.Kind {
			case KernelLaunched:
				sawLateLaunch = true
			case KernelArrived:
				t.Errorf("fabricated arrival for unarrived kernel: %+v", e)
			}
		}
	}
	if !sawLateLaunch {
		t.Error("launch event for the unarrived child is missing")
	}
}

// TestDeterministicTieOrder: two identical runs must serialise to identical
// byte streams — the tie-break sort leaves no room for map or insertion
// order to leak through.
func TestDeterministicTieOrder(t *testing.T) {
	var a, b bytes.Buffer
	if err := runFullyTraced(t).WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := runFullyTraced(t).WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical runs produced different JSONL traces")
	}
}
