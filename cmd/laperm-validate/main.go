// Command laperm-validate runs the simulator's cross-scheduler sanity
// invariants on every Table II workload and reports pass/fail — a quick
// self-check for modified builds:
//
//  1. every scheduler and model executes the identical total work;
//  2. runs are deterministic (two executions, identical statistics);
//  3. a strictly binding policy (SMX-Bind) never places a child off its
//     bound SMX cluster.
//
// Workloads validate independently, so -workers fans them over a bounded
// worker pool; the report is printed in workload order regardless.
//
// With -trace-dir, every failing cell is re-run with the event recorder
// attached and its JSONL trace dropped in the directory for post-mortem
// inspection.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/spec"
	"laperm/internal/trace"
)

func main() {
	scale := flag.String("scale", "tiny", "workload scale (tiny, small)")
	workers := flag.Int("workers", 0, "max workloads validated concurrently (0 = GOMAXPROCS)")
	traceDir := flag.String("trace-dir", "", "dump JSONL event traces of failing cells into this directory")
	flag.Parse()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	sc := kernels.ScaleTiny
	if *scale == "small" {
		sc = kernels.ScaleSmall
	}

	ws := kernels.All()
	reports := make([]string, len(ws))
	passed := make([]bool, len(ws))
	// Cells never return errors — invariant violations are reported in the
	// per-workload text instead — so Run cannot fail here.
	_ = exp.Pool{Workers: *workers}.Run(len(ws), func(i int) error {
		reports[i], passed[i] = validateWorkload(ws[i], sc, *traceDir)
		return nil
	})

	failures := 0
	for i, w := range ws {
		fmt.Print(reports[i])
		if passed[i] {
			fmt.Printf("ok   %-14s\n", w.Name)
		} else {
			failures++
		}
	}
	if failures > 0 {
		fmt.Printf("%d workloads failed validation\n", failures)
		os.Exit(1)
	}
	fmt.Println("all invariants hold")
}

// validateWorkload checks the three invariants on one workload, returning the
// rendered failure lines (empty on success) and whether every check passed.
// Each call owns a private configuration so calls can run concurrently.
func validateWorkload(w kernels.Workload, sc kernels.Scale, traceDir string) (string, bool) {
	var buf bytes.Buffer
	cfg := config.SmallTest()
	var wantInsts int64 = -1
	ok := true
	// fail renders one failure line, appending the post-mortem trace path
	// when -trace-dir is set.
	fail := func(model gpu.Model, sched, format string, args ...any) {
		fmt.Fprintf(&buf, "FAIL %-14s %s/%s: ", w.Name, model, sched)
		fmt.Fprintf(&buf, format, args...)
		if traceDir != "" {
			fmt.Fprintf(&buf, " %s", dumpTrace(traceDir, w, sc, &cfg, model, sched))
		}
		fmt.Fprintln(&buf)
		ok = false
	}
	for _, model := range exp.Models {
		for _, sched := range exp.SchedulerNames {
			opt := exp.Options{Scale: sc, Config: &cfg}
			a, err := exp.RunOne(w, model, sched, opt)
			if err != nil {
				fail(model, sched, "%v", err)
				continue
			}
			b, err := exp.RunOne(w, model, sched, opt)
			if err != nil || a.Cycles != b.Cycles || a.ThreadInsts != b.ThreadInsts {
				fail(model, sched, "nondeterministic")
			}
			if wantInsts == -1 {
				wantInsts = a.ThreadInsts
			} else if a.ThreadInsts != wantInsts {
				fail(model, sched, "%d thread-insts, others %d", a.ThreadInsts, wantInsts)
			}
		}
	}

	// Binding invariant under every strictly binding policy (SMX-Bind).
	for _, info := range core.Schedulers() {
		if !info.StrictBinding {
			continue
		}
		violations := 0
		sim, _, err := cell(w, sc, gpu.DTBL, info.Name).BuildOn(&cfg, func(g *gpu.Options) {
			g.TraceDispatch = func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
				if ki.Parent != nil && cfg.ClusterOf(smxID) != cfg.ClusterOf(ki.BoundSMX) {
					violations++
				}
			}
		})
		if err == nil {
			_, err = sim.Run()
		}
		if err != nil {
			fmt.Fprintf(&buf, "FAIL %-14s %s trace run: %v\n", w.Name, info.Name, err)
			ok = false
		}
		if violations > 0 {
			fmt.Fprintf(&buf, "FAIL %-14s %s: %d TBs off their bound cluster\n", w.Name, info.Name, violations)
			ok = false
		}
	}
	return buf.String(), ok
}

// cell is the RunSpec of one validated cell.
func cell(w kernels.Workload, sc kernels.Scale, model gpu.Model, sched string) spec.RunSpec {
	return spec.RunSpec{Workload: w.Name, Scale: sc.String(), Model: model.String(), Scheduler: sched}
}

// dumpTrace re-runs one failing cell with the event recorder attached and
// writes its JSONL trace into dir, returning a parenthesised note for the
// failure line. The run's own error is irrelevant here — the trace of the
// failure is the point — and the recorder captures events up to the error.
func dumpTrace(dir string, w kernels.Workload, sc kernels.Scale, cfg *config.GPU, model gpu.Model, sched string) string {
	rec := trace.NewRecorder()
	if sim, _, err := cell(w, sc, model, sched).BuildOn(cfg, rec.Attach); err == nil {
		sim.Run()
		rec.FinishRun(sim)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%s_%s.jsonl", w.Name, model, sched))
	if err := exp.WriteFileAtomic(path, rec.WriteJSONL); err != nil {
		return fmt.Sprintf("(trace dump failed: %v)", err)
	}
	return fmt.Sprintf("(trace: %s)", path)
}
