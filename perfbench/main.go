// Command laperm-perfbench is the repository's benchmark: it runs one
// workload against the simulator or the lapermd service for a fixed time,
// checks every op's output against committed reference digests, and prints
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separate traced run. README.md documents the workloads, metrics, bounds
// and the A/B procedure; BENCHMARK.json at the repository root lists them.
//
//	laperm-perfbench -workload sim-dtbl -seed 1 -seconds 20 -trace 0
//	laperm-perfbench -reference testdata/reference.json
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 80, "failed": 0, "metrics": {"ops_per_s": {"value": 3.04, "unit": "ops/s"}, ...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// sample is one op's outcome.
type sample struct {
	// class is one of opClasses: for service-mix the server's answer to a
	// run ("cold", "coalesced", "cached") or "sweep"; "cold" elsewhere.
	class string
	dur   time.Duration
	// err is nil when the op's output matched its reference.
	err error
}

// instance is a workload set up and ready to run steps. A step is the unit
// of the closed loop: one op, or for service-mix one lockstep step of both
// clients.
type instance interface {
	// blockLen is the number of steps in a block; an untraced run always
	// completes whole blocks.
	blockLen() int
	// step runs step i of the seeded schedule. tr is nil outside the
	// traced pass.
	step(ctx context.Context, i int, tr *tracer) []sample
	close() error
}

// startFunc sets up a fresh instance of a workload: the work setup_s times.
// It returns the time set-up spent building programs.
type startFunc func(seed uint64, workdir string) (instance, time.Duration, error)

type workload struct {
	name  string
	start startFunc
}

// workloads are the benchmark's workloads. BENCHMARK.json lists the same
// names with the reason for each; README.md describes them.
var workloads = []workload{
	{"sim-dtbl", startSim("dtbl")},
	{"sim-cdp", startSim("cdp")},
	{"experiments-tiny", startExperiments},
	{"service-mix", startService},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRuns is how many times a run sets the workload up to report
// setup_s: once in the process and the rest in child processes, since a
// second set-up in the same process would find the program memo warm.
const setupRuns = 3

type runOptions struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
	workdir  string
	// setupRuns overrides the package constant; tests set 1, because a
	// test binary cannot be re-run as the set-up child.
	setupRuns int
	// maxSteps caps each pass at that many steps (0: no cap). Tests use it
	// to run a workload through the same code at a fraction of its length.
	maxSteps int
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Uint64("seed", 1, "seed of the workload's op schedule")
		seconds   = flag.Float64("seconds", 20, "measure the whole blocks of ops that come closest to this many seconds")
		traced    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics instead")
		traceOut  = flag.String("trace-out", "", "Perfetto JSON of the traced run (default: trace-<workload>-<seed>.json in -workdir)")
		workdir   = flag.String("workdir", ".bench_build/perfbench", "directory for the service cache and the trace file")
		setupOnly = flag.Bool("setup-only", false, "set the workload up once, print the seconds it took, and exit")
		refOut    = flag.String("reference", "", "recompute every reference outcome into this file and exit")
	)
	flag.Parse()
	if *refOut != "" {
		if err := writeReference(*refOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s and -trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	var err error
	if *setupOnly {
		var d time.Duration
		if d, err = setUp(w, *seed, *workdir); err == nil {
			fmt.Println(d.Seconds())
		}
	} else {
		opts := runOptions{seed: *seed, seconds: *seconds, traced: *traced == 1, traceOut: *traceOut,
			workdir: *workdir, setupRuns: setupRuns}
		// A run takes about 1.5 × seconds; an op that hangs fails at the
		// deadline instead of stalling the run.
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(4**seconds+60)*time.Second)
		err = run(ctx, w, opts, os.Stdout)
		cancel()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// setUp times one set-up of the workload and tears it down again.
func setUp(w workload, seed uint64, workdir string) (time.Duration, error) {
	start := time.Now()
	inst, _, err := w.start(seed, workdir)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, inst.close()
}

// childSetUp times a set-up in a fresh process of this binary.
func childSetUp(ctx context.Context, w workload, seed uint64, workdir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-workdir", workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runPass runs steps of inst until stop says so.
func runPass(ctx context.Context, inst instance, tr *tracer, stop func(steps int, elapsed time.Duration) bool) passResult {
	runtime.GC()
	alloc0, gc0 := allocBytes(), gcCycles()
	start := time.Now()
	var p passResult
	for !stop(p.steps, time.Since(start)) {
		p.samples = append(p.samples, inst.step(ctx, p.steps, tr)...)
		p.steps++
		if tr != nil {
			tr.noteHeap()
		}
	}
	p.elapsed = time.Since(start)
	p.alloc, p.gc = allocBytes()-alloc0, gcCycles()-gc0
	return p
}

// freshPass sets up a new instance of w, runs one pass on it and closes it.
// With a tracer it also reads the server's counters, where there is one.
func freshPass(ctx context.Context, w workload, o runOptions, tr *tracer, stop func(int, time.Duration) bool) (passResult, error) {
	inst, _, err := w.start(o.seed, o.workdir)
	if err != nil {
		return passResult{}, err
	}
	p := runPass(ctx, inst, tr, stop)
	if s, ok := inst.(interface {
		finishTrace(context.Context, *tracer) error
	}); ok && tr != nil {
		if err := s.finishTrace(ctx, tr); err != nil {
			inst.close()
			return p, err
		}
	}
	return p, inst.close()
}

// report is the result line the benchmark ends its output with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run performs one untraced or traced run of w and writes its report to out.
func run(ctx context.Context, w workload, o runOptions, out io.Writer) error {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(out, "# laperm-perfbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, o.seed, o.seconds, o.traced)
	fmt.Fprintf(out, "# gomaxprocs=%d cpu=%q %s\n", runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())

	start := time.Now()
	inst, build, err := w.start(o.seed, o.workdir)
	if err != nil {
		return err
	}
	setup := time.Since(start)
	capped := func(steps int) bool { return o.maxSteps > 0 && steps >= o.maxSteps }

	var rep report
	var passes []passResult
	if !o.traced {
		// Stop at the block boundary nearest to the target time: a run
		// always does the same whole blocks while the host's speed varies
		// less than half a block's worth.
		block := inst.blockLen()
		target := time.Duration(o.seconds * float64(time.Second))
		p := runPass(ctx, inst, nil, func(steps int, elapsed time.Duration) bool {
			if steps == 0 || steps%block != 0 {
				return capped(steps)
			}
			next := elapsed + elapsed/time.Duration(steps/block)
			return capped(steps) || next-target > target-elapsed
		})
		if err := inst.close(); err != nil {
			return err
		}
		rss, err := peakRSSBytes()
		if err != nil {
			return err
		}
		setups := []float64{setup.Seconds()}
		for len(setups) < o.setupRuns {
			s, err := childSetUp(ctx, w, o.seed, o.workdir)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		passes = append(passes, p)
		writeSamples(out, p)
		fmt.Fprintf(out, "# setup_s samples %v\n", setups)
		rep.Metrics = metricValues(endToEnd, endToEndValues(p, rss, quantile(setups, 0.5)), out)
	} else {
		// The traced pass repeats the steps an untraced pass ran before it
		// and another runs after it, each on a fresh instance, so the ratio
		// of its time to theirs is the tracing overhead, free of warm-up.
		p1 := runPass(ctx, inst, nil, func(steps int, elapsed time.Duration) bool {
			return steps > 0 && (capped(steps) || elapsed.Seconds() >= o.seconds/3)
		})
		if err := inst.close(); err != nil {
			return err
		}
		same := func(steps int, _ time.Duration) bool { return steps >= p1.steps }
		tr := newTracer(w.name)
		p2, err := freshPass(ctx, w, o, tr, same)
		if err != nil {
			return err
		}
		p3, err := freshPass(ctx, w, o, nil, same)
		if err != nil {
			return err
		}
		passes = append(passes, p1, p2, p3)
		writeSamples(out, p2)
		tr.writeSelfTimes(out, sum(tr.spans("bench", "op")))
		path := o.traceOut
		if path == "" {
			path = filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
		}
		if err := tr.writePerfetto(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "# trace written to %s\n", path)
		in := &layerInput{tr: tr, pass: p2, kernelsBuild: build,
			overhead: 2 * p2.elapsed.Seconds() / (p1.elapsed + p3.elapsed).Seconds()}
		values := map[string]float64{}
		defs := make([]metricDef, len(perLayer))
		for i, d := range perLayer {
			defs[i] = d.metricDef
			values[d.Name] = d.value(in)
		}
		rep.Metrics = metricValues(defs, values, out)
	}

	for _, p := range passes {
		rep.Attempted += len(p.samples)
		for _, err := range p.failures() {
			if rep.Failed < 10 {
				fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
			}
			rep.Failed++
		}
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// writeSamples prints the pass's size and its latency by op class.
func writeSamples(out io.Writer, p passResult) {
	fmt.Fprintf(out, "# steps=%d ops=%d elapsed_s=%.3f gc_cycles=%d\n", p.steps, len(p.samples), p.elapsed.Seconds(), p.gc)
	var classes []string
	seen := map[string]bool{}
	for _, s := range p.samples {
		if !seen[s.class] {
			seen[s.class] = true
			classes = append(classes, s.class)
		}
	}
	for _, c := range classes {
		d := p.durs(c)
		fmt.Fprintf(out, "# class %-10s n=%-5d p50=%.3f ms p90=%.3f ms\n", c, len(d), msQuantile(d, 0.5), msQuantile(d, 0.9))
	}
}

// metricValues prints each metric on its own line and returns the report's
// metrics object.
func metricValues(defs []metricDef, values map[string]float64, out io.Writer) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return m
}
