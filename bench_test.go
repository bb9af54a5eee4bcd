// Benchmarks, one per table and figure of the paper's evaluation (plus the
// inferred sensitivity studies of DESIGN.md). Each benchmark runs its
// experiment on a reduced 4-SMX machine with tiny workloads so an iteration
// is fast while contention (several waves of thread blocks per SMX) is
// preserved; paper-scale regeneration is `go run ./cmd/laperm-experiments`.
// Benchmarks report the figure's headline quantity via b.ReportMetric.
package laperm_test

import (
	"testing"

	"laperm"
	"laperm/internal/config"
	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/metrics"
)

// benchConfig is a reduced machine on which the tiny workloads (32 parent
// TBs plus children) still queue for several dispatch waves.
func benchConfig() *config.GPU {
	g := config.SmallTest()
	g.NumSMX = 4
	g.TBsPerSMX = 4
	return &g
}

// benchWorkloads is the representative subset benchmarked per figure (one
// per application class); the full 16-workload sweep lives in the
// experiment CLI.
var benchWorkloads = []string{"bfs-citation", "amr", "join-gaussian", "regx-strings"}

func benchOptions() exp.Options {
	return exp.Options{Scale: kernels.ScaleTiny, Config: benchConfig(), Workloads: benchWorkloads}
}

// warmBench builds every workload program once (the builds are memoized and
// shared, so only the first caller pays) and restarts the benchmark clock.
// Without this the first iteration carries one-time build costs that later
// iterations — and the allocation columns — never see again.
func warmBench(b *testing.B) {
	b.Helper()
	for _, w := range laperm.Workloads() {
		w.Build(laperm.ScaleTiny)
	}
	b.ReportAllocs()
	b.ResetTimer()
}

func runCell(b *testing.B, workload string, model gpu.Model, sched string) *gpu.Result {
	b.Helper()
	w, ok := kernels.ByName(workload)
	if !ok {
		b.Fatalf("unknown workload %s", workload)
	}
	res, err := exp.RunOne(w, model, sched, benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1_Config builds and validates the Table I configuration.
func BenchmarkTable1_Config(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := laperm.KeplerK20c()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_Inventory builds every Table II workload program.
func BenchmarkTable2_Inventory(b *testing.B) {
	warmBench(b)
	for i := 0; i < b.N; i++ {
		for _, w := range laperm.Workloads() {
			if k := w.Build(laperm.ScaleTiny); len(k.TBs) == 0 {
				b.Fatalf("%s built empty", w.Name)
			}
		}
	}
}

// BenchmarkFig2_SharedFootprint runs the Section III-A analysis and reports
// the average parent-child and child-sibling shared-footprint ratios.
func BenchmarkFig2_SharedFootprint(b *testing.B) {
	var pc, cs float64
	warmBench(b)
	for i := 0; i < b.N; i++ {
		var pcs, css []float64
		for _, w := range laperm.Workloads() {
			st := laperm.AnalyzeFootprint(w.Name, w.Build(laperm.ScaleTiny))
			pcs = append(pcs, st.ParentChild)
			css = append(css, st.ChildSibling)
		}
		pc, cs = metrics.Mean(pcs), metrics.Mean(css)
	}
	b.ReportMetric(100*pc, "parent-child-%")
	b.ReportMetric(100*cs, "child-sibling-%")
}

// hitRateDelta runs rr and adaptive-bind over the benchmark subset and
// returns the mean hit-rate improvement in percentage points.
func hitRateDelta(b *testing.B, model gpu.Model, pick func(*gpu.Result) float64) float64 {
	var deltas []float64
	for _, name := range benchWorkloads {
		rr := runCell(b, name, model, "rr")
		ab := runCell(b, name, model, "adaptive-bind")
		deltas = append(deltas, 100*(pick(ab)-pick(rr)))
	}
	return metrics.Mean(deltas)
}

// BenchmarkFig7_L2HitRate reports the L2 hit-rate gain of Adaptive-Bind
// over RR (Figure 7's headline movement), per model.
func BenchmarkFig7_L2HitRate(b *testing.B) {
	var cdp, dtbl float64
	warmBench(b)
	for i := 0; i < b.N; i++ {
		l2 := func(r *gpu.Result) float64 { return r.L2.HitRate() }
		cdp = hitRateDelta(b, gpu.CDP, l2)
		dtbl = hitRateDelta(b, gpu.DTBL, l2)
	}
	b.ReportMetric(cdp, "cdp-l2-delta-pp")
	b.ReportMetric(dtbl, "dtbl-l2-delta-pp")
}

// BenchmarkFig8_L1HitRate reports the L1 hit-rate gain of Adaptive-Bind
// over RR (Figure 8), per model.
func BenchmarkFig8_L1HitRate(b *testing.B) {
	var cdp, dtbl float64
	warmBench(b)
	for i := 0; i < b.N; i++ {
		l1 := func(r *gpu.Result) float64 { return r.L1.HitRate() }
		cdp = hitRateDelta(b, gpu.CDP, l1)
		dtbl = hitRateDelta(b, gpu.DTBL, l1)
	}
	b.ReportMetric(cdp, "cdp-l1-delta-pp")
	b.ReportMetric(dtbl, "dtbl-l1-delta-pp")
}

// ipcSpeedups returns each LaPerm scheme's mean IPC normalised to RR under
// the given model.
func ipcSpeedups(b *testing.B, model gpu.Model) map[string]float64 {
	out := make(map[string]float64)
	for _, sched := range []string{"tb-pri", "smx-bind", "adaptive-bind"} {
		var xs []float64
		for _, name := range benchWorkloads {
			rr := runCell(b, name, model, "rr")
			s := runCell(b, name, model, sched)
			xs = append(xs, s.IPC/rr.IPC)
		}
		out[sched] = metrics.Mean(xs)
	}
	return out
}

// BenchmarkFig9a_IPC_CDP reports normalised IPC under CDP (Figure 9(a)).
func BenchmarkFig9a_IPC_CDP(b *testing.B) {
	var sp map[string]float64
	warmBench(b)
	for i := 0; i < b.N; i++ {
		sp = ipcSpeedups(b, gpu.CDP)
	}
	b.ReportMetric(sp["tb-pri"], "tb-pri-x")
	b.ReportMetric(sp["adaptive-bind"], "adaptive-x")
}

// BenchmarkFig9b_IPC_DTBL reports normalised IPC under DTBL (Figure 9(b)).
func BenchmarkFig9b_IPC_DTBL(b *testing.B) {
	var sp map[string]float64
	warmBench(b)
	for i := 0; i < b.N; i++ {
		sp = ipcSpeedups(b, gpu.DTBL)
	}
	b.ReportMetric(sp["tb-pri"], "tb-pri-x")
	b.ReportMetric(sp["smx-bind"], "smx-bind-x")
	b.ReportMetric(sp["adaptive-bind"], "adaptive-x")
}

// BenchmarkFigA_LaunchLatency reports Adaptive-Bind's speedup over RR at a
// low and a high child launch latency (Section IV-D: the benefit shrinks as
// the launch path lengthens).
func BenchmarkFigA_LaunchLatency(b *testing.B) {
	speedupAt := func(lat int) float64 {
		cfg := benchConfig()
		cfg.DTBLLaunchLatency = lat
		opt := exp.Options{Scale: kernels.ScaleTiny, Config: cfg}
		w, _ := kernels.ByName("bfs-citation")
		rr, err := exp.RunOne(w, gpu.DTBL, "rr", opt)
		if err != nil {
			b.Fatal(err)
		}
		ab, err := exp.RunOne(w, gpu.DTBL, "adaptive-bind", opt)
		if err != nil {
			b.Fatal(err)
		}
		return ab.IPC / rr.IPC
	}
	var lo, hi float64
	warmBench(b)
	for i := 0; i < b.N; i++ {
		lo = speedupAt(10)
		hi = speedupAt(20000)
	}
	b.ReportMetric(lo, "speedup-lat10-x")
	b.ReportMetric(hi, "speedup-lat20k-x")
}

// BenchmarkFigB_LoadBalance reports the SMX busy-cycle imbalance of
// SMX-Bind vs Adaptive-Bind on the gaussian-skewed join (Section IV-C).
func BenchmarkFigB_LoadBalance(b *testing.B) {
	var sb, ab float64
	warmBench(b)
	for i := 0; i < b.N; i++ {
		sb = runCell(b, "join-gaussian", gpu.DTBL, "smx-bind").LoadImbalance
		ab = runCell(b, "join-gaussian", gpu.DTBL, "adaptive-bind").LoadImbalance
	}
	b.ReportMetric(sb, "smx-bind-cv")
	b.ReportMetric(ab, "adaptive-cv")
}

// BenchmarkFigC_PriorityLevels reports end-to-end cycles of TB-Pri with the
// priority clamp L=1 vs L=4 on a 4-deep nested workload (Section IV-A).
func BenchmarkFigC_PriorityLevels(b *testing.B) {
	runAt := func(levels int) uint64 {
		cfg := benchConfig()
		cfg.MaxPriorityLevels = levels
		opt := exp.Options{Scale: kernels.ScaleTiny, Config: cfg}
		res, err := exp.RunOne(kernels.Nested(), gpu.DTBL, "tb-pri", opt)
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	var l1, l4 uint64
	warmBench(b)
	for i := 0; i < b.N; i++ {
		l1 = runAt(1)
		l4 = runAt(4)
	}
	b.ReportMetric(float64(l1), "cycles-L1")
	b.ReportMetric(float64(l4), "cycles-L4")
}
