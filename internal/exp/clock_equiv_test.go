package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"laperm/internal/config"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/trace"
)

// clockCellArtifacts is every serialized observable of one traced cell: the
// event stream (JSONL), the Perfetto export, and the sampled-timeline CSV.
// The fast-forward clock must reproduce all three byte for byte.
type clockCellArtifacts struct {
	res      *gpu.Result
	jsonl    []byte
	perfetto []byte
	timeline []byte
}

// runClockCell runs one workload cell fully traced under the given clocking.
func runClockCell(t *testing.T, workload string, model gpu.Model, sched string,
	scale kernels.Scale, dense bool) clockCellArtifacts {
	t.Helper()
	w, ok := kernels.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %s", workload)
	}
	g := config.SmallTest()
	o := Options{
		Scale:       scale,
		Config:      &g,
		Attribution: true,
		SampleEvery: 256,
		DenseClock:  dense,
	}
	rec := trace.NewRecorder()
	res, sim, err := RunCell(w, model, sched, o, func(g *gpu.Options) {
		g.TraceDispatch = rec.DispatchHook()
		g.TraceQueue = rec.QueueHook()
		g.TraceBlockDone = rec.BlockHook()
		g.TraceSample = rec.SampleHook()
	})
	if err != nil {
		t.Fatalf("%s/%v/%s dense=%v: %v", workload, model, sched, dense, err)
	}
	rec.FinishRun(sim)

	a := clockCellArtifacts{res: res}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	a.jsonl = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	a.perfetto = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := WriteTimelineCSV(res, &buf); err != nil {
		t.Fatal(err)
	}
	a.timeline = append([]byte(nil), buf.Bytes()...)
	return a
}

// diffClockCell asserts one cell's dense and fast-forward runs are
// observably identical: equal Results and byte-identical trace, Perfetto,
// and timeline artifacts.
func diffClockCell(t *testing.T, workload string, model gpu.Model, sched string,
	scale kernels.Scale) {
	t.Helper()
	dense := runClockCell(t, workload, model, sched, scale, true)
	ff := runClockCell(t, workload, model, sched, scale, false)
	if !reflect.DeepEqual(dense.res, ff.res) {
		t.Errorf("Results diverge:\ndense: %+v\nff:    %+v", dense.res, ff.res)
	}
	if !bytes.Equal(dense.jsonl, ff.jsonl) {
		t.Errorf("JSONL traces diverge (%d vs %d bytes)", len(dense.jsonl), len(ff.jsonl))
	}
	if !bytes.Equal(dense.perfetto, ff.perfetto) {
		t.Errorf("Perfetto exports diverge (%d vs %d bytes)", len(dense.perfetto), len(ff.perfetto))
	}
	if !bytes.Equal(dense.timeline, ff.timeline) {
		t.Errorf("timeline CSVs diverge (%d vs %d bytes)", len(dense.timeline), len(ff.timeline))
	}
}

// TestClockEquivalenceCells is the end-to-end differential matrix on real
// workloads: one representative per Table II benchmark app under every
// scheduler and both models, each cell run densely and fast-forwarded with
// full tracing, attribution, and sampling. -short trims the sweep to one
// representative cell per model.
func TestClockEquivalenceCells(t *testing.T) {
	workloads := []string{
		"amr", "bht", "bfs-citation", "clr-citation",
		"regx-darpa", "pre-movielens", "join-uniform", "sssp-citation",
	}
	for _, workload := range workloads {
		for _, model := range Models {
			for _, sched := range SchedulerNames {
				if testing.Short() && !(workload == "bfs-citation" && sched == "tb-pri") {
					continue
				}
				t.Run(fmt.Sprintf("%s/%v/%s", workload, model, sched), func(t *testing.T) {
					diffClockCell(t, workload, model, sched, kernels.ScaleTiny)
				})
			}
		}
	}
}

// TestClockEquivalenceExperiments: every experiment report is byte-equal
// under the dense clock and the event-horizon fast-forward. It is the only
// oracle that runs the ablation schedulers the registry does not build —
// Throttled and the free-backup bank — through the engine's idle-replay path.
func TestClockEquivalenceExperiments(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			o := fastOptions("bfs-citation", "amr")
			var ff, dense bytes.Buffer
			if err := e.Run(o, &ff); err != nil {
				t.Fatalf("fast-forward: %v", err)
			}
			o.DenseClock = true
			if err := e.Run(o, &dense); err != nil {
				t.Fatalf("dense: %v", err)
			}
			if !bytes.Equal(ff.Bytes(), dense.Bytes()) {
				t.Errorf("reports diverge:\nfast-forward:\n%s\ndense:\n%s", ff.String(), dense.String())
			}
		})
	}
}
