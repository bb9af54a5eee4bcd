// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation (Section V), producing the same rows and series the
// paper reports, plus the inferred sensitivity studies listed in DESIGN.md.
package exp

import (
	"fmt"
	"io"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/smx"
)

// SchedulerNames lists the evaluated TB schedulers: every policy in the
// core scheduler registry, in registration order (the paper's baseline and
// three LaPerm schemes, then extensions).
var SchedulerNames = core.SchedulerNames()

// Models lists the dynamic-parallelism models evaluated: every model in the
// gpu launch-model registry, in registration order.
var Models = gpu.Models()

// Options configures an experiment run.
type Options struct {
	// Scale selects workload size (default ScaleSmall).
	Scale kernels.Scale
	// Workloads restricts the workload set (default: all of Table II for
	// the figures, a per-study set for the sensitivity studies).
	Workloads []string
	// Config overrides the GPU configuration (default: Table I K20c).
	Config *config.GPU
	// WarpPolicy selects the warp scheduler (default GTO, per Table I).
	WarpPolicy smx.Policy
	// Workers bounds how many simulation cells run concurrently in sweeps
	// (RunMatrix, the sensitivity studies, footprint analyses). Zero or
	// negative means GOMAXPROCS; 1 forces serial execution. Output is
	// byte-identical for every worker count.
	Workers int
	// Progress, when non-nil, observes sweep progress (cells done, total,
	// ETA). It may be called from pool goroutines, one call at a time.
	Progress ProgressFunc
	// Attribution enables reuse-tagged cache accounting on every run
	// (gpu.Options.Attribution): Result.L1Reuse/L2Reuse break cache hits
	// down by installer relationship. Off by default; timing is identical
	// either way.
	Attribution bool
	// SampleEvery, when non-zero, records a timeline Sample every that
	// many cycles on every run (gpu.Options.SampleEvery).
	SampleEvery uint64
	// DenseClock runs every cell with per-cycle stepping instead of the
	// default event-horizon fast-forward (gpu.Options.DenseClock). The
	// two are cycle-exact; this exists for differential testing.
	DenseClock bool
	// Meter, when non-nil, accumulates every cell's simulated cycles so
	// Progress observations report sweep throughput (Progress.SimCycles,
	// Progress.CyclesPerSec). The cell runners also strip the
	// host-timing fields (WallTime, SimCyclesPerSec) from each Result —
	// metered or not — keeping sweep Results bit-deterministic.
	Meter *Meter

	// memo, when non-nil, holds the outcome of every point simulated so
	// far, so a run of several experiments (RunAll) simulates each
	// distinct point once.
	memo map[point]outcome
}

// config returns a private copy of the effective GPU configuration. Every
// caller gets its own copy so sweep cells that tweak parameters (launch
// latency, cluster size, priority levels) can never alias the caller's
// struct or race with a concurrent cell reading it.
func (o Options) config() *config.GPU {
	if o.Config != nil {
		g := o.Config.Clone()
		return &g
	}
	g := config.KeplerK20c()
	return &g
}

// workloads resolves o.Workloads; when it is empty, the named defaults;
// when there are none, all of Table II.
func (o Options) workloads(defaults ...string) ([]kernels.Workload, error) {
	names := o.Workloads
	if len(names) == 0 {
		names = defaults
	}
	if len(names) == 0 {
		return kernels.All(), nil
	}
	var ws []kernels.Workload
	for _, name := range names {
		w, err := kernels.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the flag value ("fig7") and Title the heading printed above
	// the output.
	ID    string
	Title string
	// Inferred marks experiments reconstructed from the paper's text
	// rather than from a visible figure (see DESIGN.md).
	Inferred bool
	// Run executes the experiment and writes its table to w.
	Run func(o Options, w io.Writer) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: GPGPU-Sim configuration parameters", Run: runTable1},
		{ID: "table2", Title: "Table II: benchmarks used in the experimental evaluation", Run: runTable2},
		{ID: "fig2", Title: "Figure 2: shared footprint ratio for parent-child and child-sibling TBs", Run: runFig2},
		{ID: "fig7", Title: "Figure 7: L2 cache hit rate", Run: runFig7},
		{ID: "fig8", Title: "Figure 8: L1 cache hit rate", Run: runFig8},
		{ID: "fig9a", Title: "Figure 9(a): IPC normalized to CDP with RR scheduler", Run: runFig9a},
		{ID: "fig9b", Title: "Figure 9(b): IPC normalized to DTBL with RR scheduler", Run: runFig9b},
		{ID: "latency", Title: "Launch-latency sensitivity of LaPerm (Section IV-D)", Inferred: true, Run: runLatency},
		{ID: "balance", Title: "SMX load balance: SMX-Bind vs Adaptive-Bind (Section IV-C)", Inferred: true, Run: runBalance},
		{ID: "levels", Title: "Priority-level ablation: clamping level L (Section IV-A)", Inferred: true, Run: runLevels},
		{ID: "clusters", Title: "SMX-cluster ablation: L1 shared by 1/2/4 SMXs (Section IV-B)", Inferred: true, Run: runClusters},
		{ID: "warp", Title: "Warp-scheduler orthogonality: LaPerm under GTO vs LRR (Section IV-F)", Inferred: true, Run: runWarp},
		{ID: "throttle", Title: "Contention-aware TB residency caps on Adaptive-Bind (Section IV-F)", Inferred: true, Run: runThrottle},
		{ID: "backup", Title: "Sticky-backup ablation for Adaptive-Bind stage 3 (Figure 6)", Inferred: true, Run: runBackup},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}
