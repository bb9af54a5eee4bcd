package main

import (
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatchesMetrics).
type metricDef struct {
	Name, Unit, Better string
}

// passResult is what one pass of ops measured.
type passResult struct {
	samples []sample
	steps   int
	elapsed time.Duration
	alloc   uint64 // heap bytes allocated during the pass
	gc      uint64 // GC cycles completed during the pass
}

// durs returns the latencies of the pass's ops of one class ("" for all).
func (p passResult) durs(class string) []time.Duration {
	var out []time.Duration
	for _, s := range p.samples {
		if class == "" || s.class == class {
			out = append(out, s.dur)
		}
	}
	return out
}

func (p passResult) failures() []error {
	var out []error
	for _, s := range p.samples {
		if s.err != nil {
			out = append(out, s.err)
		}
	}
	return out
}

// opClasses are the op classes with latency metrics of their own. Service-
// mix has all four; every op of the other workloads computes its result
// from scratch, so it is cold.
var opClasses = []string{"cold", "coalesced", "cached", "sweep"}

// endToEnd are the metrics of an untraced run, the ones a user of the
// simulator or of lapermd sees.
var endToEnd = buildEndToEnd()

func buildEndToEnd() []metricDef {
	defs := []metricDef{{"ops_per_s", "ops/s", "higher"}}
	for _, c := range opClasses {
		defs = append(defs, metricDef{c + "_ms_p50", "ms", "lower"}, metricDef{c + "_ms_p90", "ms", "lower"})
	}
	return append(defs,
		metricDef{"alloc_mb_per_op", "MB/op", "lower"},
		metricDef{"rss_peak_mb", "MB", "lower"},
		metricDef{"setup_s", "s", "lower"})
}

func endToEndValues(p passResult, rss uint64, setup float64) map[string]float64 {
	ops := float64(len(p.samples))
	v := map[string]float64{
		"ops_per_s":       ops / p.elapsed.Seconds(),
		"alloc_mb_per_op": float64(p.alloc) / 1e6 / ops,
		"rss_peak_mb":     float64(rss) / 1e6,
		"setup_s":         setup,
	}
	for _, c := range opClasses {
		d := p.durs(c)
		if len(d) == 0 {
			// A workload without ops of the class reports the quantiles
			// of all its ops, so that no metric reads 0.
			d = p.durs("")
		}
		v[c+"_ms_p50"], v[c+"_ms_p90"] = msQuantile(d, 0.5), msQuantile(d, 0.9)
	}
	return v
}

// layerInput is what the per-layer metrics are computed from: the traced
// pass, its tracer, the cold program build of set-up, and the traced pass's
// duration relative to the same steps run untraced.
type layerInput struct {
	tr           *tracer
	pass         passResult
	kernelsBuild time.Duration
	overhead     float64
}

type layerDef struct {
	metricDef
	value func(in *layerInput) float64
}

// perLayer are the metrics of a traced run, named "<layer>.<metric>" after
// this repository's modules. A layer a workload never reaches reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	opTime := func(in *layerInput) float64 { return float64(sum(in.tr.spans("bench", "op"))) }
	spanQ := func(track, name string, q float64) func(*layerInput) float64 {
		return func(in *layerInput) float64 { return msQuantile(in.tr.spans(track, name), q) }
	}
	perRun := func(f func(simCounts) float64) func(*layerInput) float64 {
		return func(in *layerInput) float64 { return ratio(f(in.tr.sim), float64(in.tr.sim.runs)) }
	}
	perDone := func(f func(simCounts) float64) func(*layerInput) float64 {
		return func(in *layerInput) float64 {
			s := in.tr.sim
			return ratio(f(s), float64(s.runs-s.deadlocks))
		}
	}
	counter := func(in *layerInput, name string) float64 { return in.tr.serve[name] }
	defs := []layerDef{
		{metricDef{"kernels.build_s", "s", "lower"}, func(in *layerInput) float64 { return in.kernelsBuild.Seconds() }},
		{metricDef{"spec.build_ms_p50", "ms", "lower"}, spanQ("spec", "build", 0.5)},
		{metricDef{"gpu.simulate_share", "ratio", "lower"}, func(in *layerInput) float64 {
			return ratio(float64(sum(in.tr.spans("gpu", "gpu.simulate"))), opTime(in))
		}},
		{metricDef{"gpu.ns_per_cycle", "ns/cycle", "lower"}, func(in *layerInput) float64 {
			return ratio(float64(sum(in.tr.spans("gpu", "gpu.simulate"))), in.tr.sim.cycles)
		}},
		{metricDef{"gpu.result_us_p50", "us", "lower"}, func(in *layerInput) float64 {
			return 1000 * msQuantile(in.tr.spans("gpu", "gpu.result"), 0.5)
		}},
		{metricDef{"gpu.cycles_per_op", "cycles/op", "lower"}, perRun(func(s simCounts) float64 { return s.cycles })},
		{metricDef{"gpu.launches_per_op", "launches/op", "lower"}, perDone(func(s simCounts) float64 { return s.launches })},
		{metricDef{"gpu.deadlock_frac", "ratio", "lower"}, perRun(func(s simCounts) float64 { return float64(s.deadlocks) })},
		{metricDef{"core.select_calls_per_op", "calls/op", "lower"}, func(in *layerInput) float64 {
			return ratio(float64(in.tr.core.selects), float64(in.tr.sim.runs))
		}},
		{metricDef{"core.select_hit_ratio", "ratio", "higher"}, func(in *layerInput) float64 {
			return ratio(float64(in.tr.core.hits), float64(in.tr.core.selects))
		}},
		{metricDef{"core.select_share", "ratio", "lower"}, func(in *layerInput) float64 {
			return ratio(float64(in.tr.core.selectTime), opTime(in))
		}},
		{metricDef{"core.canfit_per_select", "calls/select", "lower"}, func(in *layerInput) float64 {
			return ratio(float64(in.tr.core.canFits), float64(in.tr.core.selects))
		}},
		{metricDef{"core.enqueue_calls_per_op", "calls/op", "lower"}, func(in *layerInput) float64 {
			return ratio(float64(in.tr.core.enqueues), float64(in.tr.sim.runs))
		}},
		{metricDef{"smx.thread_insts_per_op", "insts/op", "lower"}, perDone(func(s simCounts) float64 { return s.insts })},
		{metricDef{"smx.mem_stalls_per_op", "cycles/op", "lower"}, perDone(func(s simCounts) float64 { return s.memStalls })},
		{metricDef{"smx.ipc", "insts/cycle", "higher"}, func(in *layerInput) float64 {
			return ratio(in.tr.sim.insts, in.tr.sim.doneCycles)
		}},
		{metricDef{"mem.l1_accesses_per_op", "accesses/op", "lower"}, perDone(func(s simCounts) float64 { return s.l1Acc })},
		{metricDef{"mem.l1_hit_rate", "ratio", "higher"}, func(in *layerInput) float64 { return ratio(in.tr.sim.l1Hit, in.tr.sim.l1Acc) }},
		{metricDef{"mem.l2_accesses_per_op", "accesses/op", "lower"}, perDone(func(s simCounts) float64 { return s.l2Acc })},
		{metricDef{"mem.l2_hit_rate", "ratio", "higher"}, func(in *layerInput) float64 { return ratio(in.tr.sim.l2Hit, in.tr.sim.l2Acc) }},
		{metricDef{"mem.dram_tx_per_op", "tx/op", "lower"}, perDone(func(s simCounts) float64 { return s.dramTx })},
	}
	for _, id := range expIDs {
		defs = append(defs,
			layerDef{metricDef{"exp." + id + "_ms_p50", "ms", "lower"}, func(in *layerInput) float64 {
				if st := in.tr.exp[id]; st != nil {
					return msQuantile(st.durs, 0.5)
				}
				return 0
			}},
			layerDef{metricDef{"exp." + id + "_alloc_mb", "MB", "lower"}, func(in *layerInput) float64 {
				if st := in.tr.exp[id]; st != nil {
					return float64(st.alloc) / 1e6 / float64(len(st.durs))
				}
				return 0
			}})
	}

	defs = append(defs,
		layerDef{metricDef{"serve.queue_ms_p50", "ms", "lower"}, spanQ("serve", "queue", 0.5)},
		layerDef{metricDef{"serve.queue_ms_p90", "ms", "lower"}, spanQ("serve", "queue", 0.9)},
		layerDef{metricDef{"serve.artifacts_ms_p50", "ms", "lower"}, spanQ("serve", "artifacts", 0.5)},
		layerDef{metricDef{"serve.outside_run_ms_p50", "ms", "lower"}, spanQ("serve", "outside_run", 0.5)},
		layerDef{metricDef{"serve.cache_hit_ratio", "ratio", "higher"}, func(in *layerInput) float64 {
			hits := counter(in, "laperm_cache_hits_total")
			return ratio(hits, hits+counter(in, "laperm_cache_misses_total"))
		}},
		layerDef{metricDef{"serve.coalesce_ratio", "ratio", "higher"}, func(in *layerInput) float64 {
			return ratio(counter(in, "laperm_jobs_coalesced_total"), counter(in, "laperm_jobs_submitted_total"))
		}},
		layerDef{metricDef{"serve.sweep_saved_ratio", "ratio", "higher"}, func(in *layerInput) float64 {
			saved := counter(in, "laperm_sweep_cells_deduped_total") + counter(in, "laperm_sweep_cells_cached_total")
			return ratio(saved, counter(in, "laperm_sweep_cells_expanded_total"))
		}},
		layerDef{metricDef{"serve.cache_written_kb_per_job", "KB/job", "lower"}, func(in *layerInput) float64 {
			return ratio(counter(in, "laperm_cache_written_bytes_total")/1e3, counter(in, "laperm_jobs_done_total"))
		}},
		layerDef{metricDef{"client.post_ms_p50", "ms", "lower"}, spanQ("client", "post", 0.5)},
		layerDef{metricDef{"client.wait_ms_p50", "ms", "lower"}, spanQ("client", "wait", 0.5)},
		layerDef{metricDef{"client.result_get_ms_p50", "ms", "lower"}, spanQ("client", "result_get", 0.5)},
		layerDef{metricDef{"go.gc_cycles_per_op", "cycles/op", "lower"}, func(in *layerInput) float64 {
			return ratio(float64(in.pass.gc), float64(len(in.pass.samples)))
		}},
		layerDef{metricDef{"go.heap_peak_mb", "MB", "lower"}, func(in *layerInput) float64 { return float64(in.tr.heapPeak) / 1e6 }},
		layerDef{metricDef{"trace_overhead", "ratio", "lower"}, func(in *layerInput) float64 { return in.overhead }},
	)
	return defs
}
