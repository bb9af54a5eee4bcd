package exp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
	"laperm/internal/kernels"
	"laperm/internal/smx"
)

// fastOptions runs experiments on a reduced machine with tiny workloads so
// a test completes in milliseconds while contention is preserved.
func fastOptions(workloads ...string) Options {
	g := config.SmallTest()
	g.NumSMX = 4
	g.TBsPerSMX = 4
	return Options{Scale: kernels.ScaleTiny, Config: &g, Workloads: workloads}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "fig2", "fig7", "fig8", "fig9a", "fig9b", "latency", "balance", "levels", "clusters", "warp", "throttle", "backup"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("experiment %d = %q, want %q", i, ids[i], id)
		}
	}
	if _, ok := ByID("fig7"); !ok {
		t.Error("ByID(fig7) not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestNewSchedulerNames(t *testing.T) {
	cfg := config.SmallTest()
	for _, name := range SchedulerNames {
		s, err := core.NewSchedulerFor(name, &cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("scheduler %q reports name %q", name, s.Name())
		}
	}
	if _, err := core.NewSchedulerFor("bogus", &cfg); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestOptionsWorkloadsValidation(t *testing.T) {
	o := Options{Workloads: []string{"not-a-workload"}}
	if _, err := o.workloads(); err == nil {
		t.Error("unknown workload accepted")
	}
	o = Options{}
	ws, err := o.workloads()
	if err != nil || len(ws) != 16 {
		t.Errorf("default workloads = %d, %v", len(ws), err)
	}
}

func TestRunMatrixAndFigures(t *testing.T) {
	o := fastOptions("bfs-citation", "join-uniform")
	m, err := RunMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(Models) * len(SchedulerNames); len(m.Results) != want {
		t.Fatalf("matrix cells = %d, want %d", len(m.Results), want)
	}
	var buf bytes.Buffer
	for _, run := range []func(Options, io.Writer) error{runFig7, runFig8, runFig9b} {
		if err := run(o, &buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{"bfs-citation", "join-uniform", "average", "cdp/rr", "dtbl/adaptive-bind"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q", want)
		}
	}
	// RR baseline rows of Fig9 must be exactly 1.000.
	if !strings.Contains(out, "1.000") {
		t.Error("Fig9 missing normalised baseline")
	}
}

func TestMatrixGetPanicsOnMissingCell(t *testing.T) {
	m := &Matrix{Results: map[Cell]*gpu.Result{}}
	defer func() {
		if recover() == nil {
			t.Fatal("Get on missing cell did not panic")
		}
	}()
	m.Get("x", gpu.CDP, "rr")
}

func TestTables12Render(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable1(Options{}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"706 MHz", "13", "1536 KB", "Greedy-Then-Oldest"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table1 missing %q", want)
		}
	}
	// The warp row names the caller's policy.
	buf.Reset()
	if err := runTable1(Options{WarpPolicy: smx.LRR}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Loose Round-Robin") {
		t.Errorf("table1 under LRR names the wrong warp scheduler:\n%s", buf.String())
	}
	buf.Reset()
	if err := runTable2(Options{}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Breadth-First Search", "Relational Join", "cage15"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestFig2Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig2(fastOptions("amr", "bht"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "average") {
		t.Error("fig2 missing average row")
	}
}

func TestSensitivityExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweeps are slow")
	}
	var buf bytes.Buffer
	o := fastOptions("join-uniform")
	if err := runBalance(o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "join-uniform") {
		t.Error("balance output missing workload")
	}
	buf.Reset()
	o2 := fastOptions()
	o2.Workloads = []string{"bfs-citation"}
	if err := runLatency(o2, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "20000") {
		t.Error("latency output missing sweep point")
	}
	buf.Reset()
	if err := runLevels(fastOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "max level L") {
		t.Error("levels output missing header")
	}
}

// TestExperimentsKeepCallerOptions: every simulating experiment passes the
// caller's Options down to its cells. The Meter is the observable witness:
// an experiment that rebuilds Options drops it along with DenseClock,
// Attribution and Workers.
func TestExperimentsKeepCallerOptions(t *testing.T) {
	footprintOnly := map[string]bool{"table1": true, "table2": true, "fig2": true}
	for _, e := range All() {
		if footprintOnly[e.ID] {
			continue
		}
		o := fastOptions("bfs-citation")
		o.Meter = NewMeter()
		if err := e.Run(o, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if o.Meter.Cycles() == 0 {
			t.Errorf("%s: Meter saw no simulated cycles; the caller's Options were dropped", e.ID)
		}
	}
}

// TestThrottleAndBackupKeepCallerOptions: the throttle and backup studies
// build their cells like every other study, so the caller's warp policy
// reaches them. Under LRR, the uncapped throttle row must report plain
// Adaptive-Bind's L1 hit rate and backup's sticky/rr column must divide two
// LRR runs.
func TestThrottleAndBackupKeepCallerOptions(t *testing.T) {
	o := fastOptions("bfs-citation")
	o.WarpPolicy = smx.LRR
	w, _ := kernels.ByName("bfs-citation")
	ab, err := RunOne(w, gpu.DTBL, "adaptive-bind", o)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunOne(w, gpu.DTBL, "rr", o)
	if err != nil {
		t.Fatal(err)
	}
	// row returns the fields of the first report row for bfs-citation.
	row := func(run func(Options, io.Writer) error) []string {
		var buf bytes.Buffer
		if err := run(o, &buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == "bfs-citation" {
				return f
			}
		}
		t.Fatalf("no bfs-citation row in:\n%s", buf.String())
		return nil
	}
	// Caps at or above fastOptions' 4 TBs per SMX leave dispatch unchanged.
	if got, want := row(runThrottle)[3], pct(ab.L1.HitRate()); got != want {
		t.Errorf("throttle cap-16 l1 hit = %s, want Adaptive-Bind's %s under LRR", got, want)
	}
	if got, want := row(runBackup)[1], norm(ab.IPC/rr.IPC); got != want {
		t.Errorf("backup ipc sticky/rr = %s, want %s under LRR", got, want)
	}
}

func TestNestedWorkloadValidates(t *testing.T) {
	k := NestedWorkload().Build(kernels.ScaleTiny)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	// Depth-4 nesting: each TB launches two children for 4 generations,
	// so each of the 16 tiny-scale roots yields 2+4+8+16 = 30 descendant
	// grids.
	grids := 0
	k.Walk(func(parent, child *isa.Kernel) {
		if parent != nil {
			grids++
		}
	})
	if want := 16 * 30; grids != want {
		t.Errorf("descendant grids = %d, want %d", grids, want)
	}
}

func TestRunOneErrorsOnUnknownScheduler(t *testing.T) {
	w, _ := kernels.ByName("amr")
	if _, err := RunOne(w, gpu.DTBL, "bogus", fastOptions()); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestCSVExports(t *testing.T) {
	o := fastOptions("amr", "bht")
	m, err := RunMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMatrixCSV(m, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + one row per workload x model x scheduler cell.
	if want := 1 + 2*len(Models)*len(SchedulerNames); len(lines) != want {
		t.Errorf("matrix CSV rows = %d, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "workload,app,input,model,scheduler") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != strings.Count(lines[0], ",") {
			t.Errorf("ragged CSV row: %q", l)
		}
	}

	buf.Reset()
	if err := WriteFootprintCSV(o, &buf); err != nil {
		t.Fatal(err)
	}
	fp := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(fp) != 3 {
		t.Errorf("footprint CSV rows = %d, want 3", len(fp))
	}

	bad := Options{Workloads: []string{"nope"}}
	if err := WriteFootprintCSV(bad, &buf); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWriteMatrixCSVAtomicOnMissingCell(t *testing.T) {
	o := fastOptions("amr")
	m, err := RunMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	// Remove a mid-matrix cell: the writer must error without emitting the
	// header or any leading rows.
	delete(m.Results, Cell{"amr", gpu.DTBL, "smx-bind"})
	var buf bytes.Buffer
	if err := WriteMatrixCSV(m, &buf); err == nil {
		t.Fatal("missing cell not reported")
	}
	if buf.Len() != 0 {
		t.Errorf("partial CSV emitted on error: %q", buf.String())
	}
}

func TestRunAllAtomicOnMidMatrixError(t *testing.T) {
	// An unknown workload is only discovered at the fig2 stage, after the
	// table1/table2 sections have been rendered; nothing may reach w.
	var buf bytes.Buffer
	if err := RunAll(Options{Workloads: []string{"nope"}}, &buf); err == nil {
		t.Fatal("unknown workload not reported")
	}
	if buf.Len() != 0 {
		t.Errorf("partial report emitted on error: %q", buf.String())
	}
}

func TestRunOnePropagatesPanicAsPoolError(t *testing.T) {
	// A scheduler that panics mid-run must surface as an error from the
	// sweep, not crash the process.
	o := fastOptions("amr")
	o.Workers = 2
	err := o.pool().Run(3, func(i int) error {
		if i == 1 {
			panic("scheduler bug")
		}
		_, err := RunMatrix(fastOptions("amr"))
		return err
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Cell != 1 {
		t.Fatalf("err = %v, want *PanicError for cell 1", err)
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll executes every experiment")
	}
	o := fastOptions("amr", "join-uniform")
	var buf bytes.Buffer
	if err := RunAll(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "=== "+e.ID+":") {
			t.Errorf("RunAll output missing section %q", e.ID)
		}
	}
}

// TestRunAllSimulatesEachPointOnce: RunAll simulates the union of the
// experiments' points, each exactly once. Every pool cell reports one
// Progress observation — one per simulated point, plus fig2's per-workload
// footprint analyses — and the Meter sums each distinct point's cycles once.
func TestRunAllSimulatesEachPointOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll executes every experiment")
	}
	o := fastOptions("amr", "join-uniform", "bfs-citation")
	union := make(map[point]outcome)
	for _, e := range All() {
		solo := o
		solo.memo = make(map[point]outcome)
		if err := e.Run(solo, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for p, out := range solo.memo {
			union[p] = out
		}
	}
	var cycles uint64
	for _, out := range union {
		cycles += out.res.Cycles
	}
	cells := 0
	o.Progress = func(Progress) { cells++ }
	o.Meter = NewMeter()
	if err := RunAll(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := len(union) + len(o.Workloads); cells != want {
		t.Errorf("RunAll ran %d pool cells, want %d distinct points + %d footprint analyses",
			cells, len(union), len(o.Workloads))
	}
	if got := o.Meter.Cycles(); got != cycles {
		t.Errorf("RunAll simulated %d cycles, want %d (each distinct point once)", got, cycles)
	}
}

// TestRunAllSectionsMatchStandalone: each RunAll section is byte-equal to
// its experiment's standalone report, so sharing points changes no output.
func TestRunAllSectionsMatchStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll executes every experiment")
	}
	o := fastOptions("amr", "join-uniform")
	var all bytes.Buffer
	if err := RunAll(o, &all); err != nil {
		t.Fatal(err)
	}
	rest := all.String()
	for _, e := range All() {
		var solo bytes.Buffer
		if err := e.Run(o, &solo); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		header, body, _ := strings.Cut(rest, "\n")
		if !strings.HasPrefix(header, "=== "+e.ID+": ") {
			t.Fatalf("section header %q, want %s", header, e.ID)
		}
		want := solo.String() + "\n"
		if !strings.HasPrefix(body, want) {
			t.Fatalf("%s: RunAll section differs from the standalone report:\n%s\nwant:\n%s", e.ID, body, want)
		}
		rest = body[len(want):]
	}
	if rest != "" {
		t.Errorf("RunAll has trailing output %q", rest)
	}
}

// TestStudiesRejectUnknownWorkload: every experiment that takes a workload
// set reports an unknown name as a *kernels.UnknownWorkloadError, which
// lists the valid names.
func TestStudiesRejectUnknownWorkload(t *testing.T) {
	noWorkloads := map[string]bool{"table1": true, "table2": true, "levels": true}
	for _, e := range All() {
		if noWorkloads[e.ID] {
			continue
		}
		var uw *kernels.UnknownWorkloadError
		if err := e.Run(fastOptions("nope"), io.Discard); !errors.As(err, &uw) {
			t.Errorf("%s: err = %v, want *kernels.UnknownWorkloadError", e.ID, err)
		}
	}
}
