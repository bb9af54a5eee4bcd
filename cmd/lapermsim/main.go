// Command lapermsim runs benchmark workloads on the simulated GPU under a
// chosen dynamic-parallelism model and TB scheduler, printing each run's
// statistics.
//
// Usage:
//
//	lapermsim -workload bfs-citation -model dtbl -sched adaptive-bind
//	lapermsim -workload join-gaussian -model cdp -sched rr -scale medium -v
//	lapermsim -workload all -workers 8            # whole suite, in parallel
//	lapermsim -workload amr,bht,mst-journal       # a comma-separated subset
//	lapermsim -workload amr -scale tiny -timeline 256 -out run/
//	lapermsim -workload amr -scale tiny -compare -reuse-csv reuse.csv
//
// -out DIR records one run with reuse attribution on and writes lapermd's
// artifact set for its spec into DIR (trace.perfetto.json opens in
// ui.perfetto.dev). -compare re-runs each workload under every scheduler
// and tabulates L1/L2 hits by installer relationship (self / parent-child /
// sibling / cross), the repo-native Figure 3 view.
//
// The flags assemble a spec.RunSpec per workload — the same request type the
// lapermd service accepts — so a command line and a service submission
// describe runs identically; -print-spec emits the canonical JSON instead of
// simulating, ready to POST to /v1/runs.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/mem"
	"laperm/internal/prof"
	"laperm/internal/serve"
	"laperm/internal/spec"
	"laperm/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on explicit arguments and streams; it returns the exit
// status: 0 on success, 1 when a run fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lapermsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "bfs-citation", `workload name, comma-separated list, or "all" (`+strings.Join(kernels.Names(), ", ")+")")
	model := fs.String("model", "dtbl", "dynamic parallelism model ("+strings.Join(gpu.ModelNames(), ", ")+")")
	sched := fs.String("sched", "adaptive-bind", "TB scheduler ("+strings.Join(spec.SchedulerNames(), ", ")+")")
	scale := fs.String("scale", "small", "workload scale (tiny, small, medium)")
	verbose := fs.Bool("v", false, "print per-SMX statistics")
	timeline := fs.Uint64("timeline", 0, "sample the run every N cycles and print the timeline (single workload only)")
	workers := fs.Int("workers", 0, "max workloads (or -compare cells) simulated concurrently (0 = GOMAXPROCS; output order is fixed)")
	dense := fs.Bool("dense", false, "step the engine one cycle at a time instead of event-horizon fast-forwarding (slower, identical results)")
	printSpec := fs.Bool("print-spec", false, "print each run's canonical RunSpec JSON and exit without simulating")
	out := fs.String("out", "", "with reuse attribution on, write the run's artifact set (spec.json, events.jsonl, trace.perfetto.json, timeline.csv, reuse.csv, result.json) into this directory (single workload only)")
	compare := fs.Bool("compare", false, "run each workload under every scheduler and tabulate L1/L2 reuse by installer relationship")
	reuseCSV := fs.String("reuse-csv", "", "with -compare: write the per-scheduler reuse breakdown CSV to this file ('-' for stdout)")
	pf := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	names := strings.Split(*workload, ",")
	if *workload == "all" {
		names = kernels.Names()
	}
	if (*out != "" || *timeline > 0) && len(names) > 1 || *out != "" && *compare {
		fmt.Fprintln(stderr, "-out and -timeline require a single -workload; -out excludes -compare")
		return 2
	}

	// Flags become RunSpecs up front: every run the command makes is fully
	// described (and validated) before anything simulates.
	specs := make([]spec.RunSpec, len(names))
	for i, name := range names {
		specs[i] = spec.RunSpec{
			Workload:    name,
			Scale:       *scale,
			Model:       *model,
			Scheduler:   *sched,
			SampleEvery: *timeline,
			DenseClock:  *dense,
			Attribution: *out != "",
		}
		if err := specs[i].Validate(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *printSpec {
		for _, sp := range specs {
			canon, err := sp.Canonical()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			fmt.Fprintln(stdout, string(canon))
		}
		return 0
	}

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *compare {
		err = runCompare(stdout, specs[0], names, *workers, *reuseCSV)
	} else {
		// Fan the workloads over a bounded worker pool. Outputs are buffered
		// per cell and printed in command-line order, so the report is
		// identical for every -workers value.
		outs := make([]string, len(names))
		err = exp.Pool{Workers: *workers}.Run(len(names), func(i int) error {
			var buf bytes.Buffer
			if len(names) > 1 {
				fmt.Fprintf(&buf, "=== %s ===\n", names[i])
			}
			err := runWorkload(&buf, specs[i], *verbose, *out)
			outs[i] = buf.String()
			return err
		})
		fmt.Fprint(stdout, strings.Join(outs, ""))
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runWorkload simulates one spec and renders its statistics to w; with out
// set it records the run and writes its artifact set there. Every call
// builds a private configuration, scheduler, and simulator via the spec, so
// calls are safe to run concurrently.
func runWorkload(w io.Writer, sp spec.RunSpec, verbose bool, out string) error {
	var rec *trace.Recorder
	var customize func(*gpu.Options)
	if out != "" {
		rec = trace.NewRecorder()
		customize = rec.Attach
	}
	sim, _, err := sp.BuildWith(customize)
	if err != nil {
		return err
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res)
	fmt.Fprintf(w, "  DRAM transactions: %d\n", res.DRAMTransactions)
	if verbose {
		for i, st := range res.SMXStats {
			fmt.Fprintf(w, "  SMX%-2d: %8d thread-insts, %7d resident cycles, %6d issue cycles, %4d blocks\n",
				i, st.ThreadInsts, st.ResidentCycles, st.IssueCycles, st.BlocksCompleted)
		}
	}
	if sp.SampleEvery > 0 {
		fmt.Fprintln(w, "  cycle      ipc     l1      l2      resident-TBs  live-kernels")
		for _, s := range res.Timeline {
			fmt.Fprintf(w, "  %-10d %-7.1f %5.1f%%  %5.1f%%  %-13d %d\n",
				s.Cycle, s.IPC, 100*s.L1, 100*s.L2, s.ResidentTBs, s.LiveKernels)
		}
	}
	if rec == nil {
		return nil
	}
	rec.FinishRun()
	printReuse(w, "L1", res.L1Reuse)
	printReuse(w, "L2", res.L2Reuse)
	arts, err := serve.RunArtifacts(sp, res, rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for _, a := range arts {
		if err := exp.WriteFileAtomic(filepath.Join(out, a.Name), a.Write); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "  %d trace events, %d timeline samples -> %s\n", rec.Len(), len(res.Timeline), out)
	return nil
}

func printReuse(w io.Writer, level string, r mem.ReuseStats) {
	fmt.Fprintf(w, "  %s reuse: %s", level, r)
	if r.Total() > 0 {
		fmt.Fprintf(w, " (parent-child %.1f%%)", 100*r.Share(mem.ReuseParentChild))
	}
	fmt.Fprintln(w)
}

// runCompare sweeps the named workloads under every scheduler, with sp's
// scale, model and clocking, and tabulates the reuse breakdowns.
func runCompare(w io.Writer, sp spec.RunSpec, names []string, workers int, reuseCSV string) error {
	n := sp.Normalized()
	sc, err := spec.ParseScale(n.Scale)
	m, merr := spec.ParseModel(n.Model)
	if err = errors.Join(err, merr); err != nil {
		return err
	}
	rm, err := exp.RunReuse(exp.Options{
		SampleEvery: n.SampleEvery,
		DenseClock:  n.DenseClock,
		Workers:     workers,
		Scale:       sc,
		Workloads:   names,
	}, m)
	if err != nil {
		return err
	}
	if err := exp.WriteReuseReport(rm, w); err != nil {
		return err
	}
	writeCSV := func(f io.Writer) error { return exp.WriteReuseCSV(rm, f) }
	switch reuseCSV {
	case "":
		return nil
	case "-":
		return writeCSV(w)
	}
	return exp.WriteFileAtomic(reuseCSV, writeCSV)
}
