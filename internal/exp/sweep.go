package exp

import (
	"fmt"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/smx"
)

// RunOne simulates one workload under one (model, scheduler) pair.
func RunOne(w kernels.Workload, model gpu.Model, sched string, o Options) (*gpu.Result, error) {
	res, _, err := RunCell(w, model, sched, o, nil)
	return res, err
}

// RunCell is RunOne exposing the engine: customize, when non-nil, edits the
// assembled gpu.Options before the simulator is built (trace hooks, sampling
// overrides), and the simulator is returned alongside the result so callers
// can read kernel-instance timestamps afterwards. On a Run error the
// simulator is still returned for post-mortem inspection (nil only when
// construction itself failed).
func RunCell(w kernels.Workload, model gpu.Model, sched string, o Options,
	customize func(*gpu.Options)) (*gpu.Result, *gpu.Simulator, error) {
	cfg := o.config()
	s, err := core.NewSchedulerFor(sched, cfg)
	if err != nil {
		return nil, nil, err
	}
	gopts := gpu.Options{
		Config: cfg, Scheduler: s, Model: model, WarpPolicy: o.WarpPolicy,
		Attribution: o.Attribution, SampleEvery: o.SampleEvery,
		DenseClock: o.DenseClock,
	}
	if customize != nil {
		customize(&gopts)
	}
	sim, err := gpu.New(gopts)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: %s/%v/%s: %w", w.Name, model, sched, err)
	}
	if err := sim.LaunchHost(w.Build(o.Scale)); err != nil {
		return nil, sim, fmt.Errorf("exp: %s/%v/%s: %w", w.Name, model, sched, err)
	}
	res, err := sim.Run()
	if err != nil {
		return nil, sim, fmt.Errorf("exp: %s/%v/%s: %w", w.Name, model, sched, err)
	}
	o.meterResult(res)
	return res, sim, nil
}

// point is one simulation of the evaluation: a workload (Table II or
// NestedWorkload) under a launch model and a registered TB scheduler, on a
// GPU configuration and warp policy, optionally with a TB residency cap
// (cap > 0 wraps the scheduler in core.NewThrottled) or the free stage-3
// backup ablation of Adaptive-Bind. The Options every point of a run shares
// (scale, clock, attribution, sampling) are not part of it, so within one
// run equal points are the same simulation.
type point struct {
	workload   string
	model      gpu.Model
	sched      string
	cfg        config.GPU
	warp       smx.Policy
	cap        int
	freeBackup bool
}

// basePoint returns o's point for model with no workload or scheduler chosen.
// Studies resolve it once and vary copies, so the configuration is built
// once per study rather than once per point.
func (o Options) basePoint(model gpu.Model) point {
	return point{model: model, cfg: *o.config(), warp: o.WarpPolicy}
}

// under lists p once under each of the named schedulers.
func (p point) under(scheds ...string) []point {
	pts := make([]point, len(scheds))
	for i, sched := range scheds {
		pts[i] = p
		pts[i].sched = sched
	}
	return pts
}

// outcome is one simulated point: its result and, for the bound-bank
// schedulers, the stage-3 steal count (core.AdaptiveBind.Steals). The
// scheduler itself is not kept: its queues reference the finished run's
// kernels, and holding them would keep every simulated point's memory
// alive until the experiment renders.
type outcome struct {
	res    *gpu.Result
	steals int64
}

// simulate is the experiment executor. It runs every distinct point of
// rows that o's memo does not already hold exactly once, on o's pool, and
// returns the outcomes laid out like rows. Points are claimed in the order
// they are first listed, so an error is the one a serial loop would return.
func (o Options) simulate(rows [][]point) ([][]outcome, error) {
	done := o.memo
	if done == nil {
		done = make(map[point]outcome)
	}
	var todo []point
	queued := make(map[point]bool)
	for _, row := range rows {
		for _, p := range row {
			if _, ok := done[p]; !ok && !queued[p] {
				queued[p] = true
				todo = append(todo, p)
			}
		}
	}
	results, err := sweep(o, len(todo), func(i int) (outcome, error) { return o.run(todo[i]) })
	if err != nil {
		return nil, err
	}
	for i, p := range todo {
		done[p] = results[i]
	}
	out := make([][]outcome, len(rows))
	for i, row := range rows {
		out[i] = make([]outcome, len(row))
		for j, p := range row {
			out[i][j] = done[p]
		}
	}
	return out, nil
}

// run simulates one point through RunCell, applying its backup ablation
// and residency cap to the scheduler the registry built.
func (o Options) run(p point) (outcome, error) {
	w := NestedWorkload()
	if p.workload != w.Name {
		var err error
		if w, err = kernels.Lookup(p.workload); err != nil {
			return outcome{}, err
		}
	}
	o.Config, o.WarpPolicy = &p.cfg, p.warp
	var bind *core.AdaptiveBind
	res, _, err := RunCell(w, p.model, p.sched, o, func(g *gpu.Options) {
		if p.freeBackup {
			c := g.Config
			g.Scheduler = core.NewBindClusters(c.NumSMX, c.SMXsPerCluster, c.MaxPriorityLevels, core.BackupFree)
		}
		bind, _ = g.Scheduler.(*core.AdaptiveBind)
		if p.cap > 0 {
			g.Scheduler = core.NewThrottled(g.Scheduler, p.cap)
		}
	})
	out := outcome{res: res}
	if bind != nil {
		out.steals = bind.Steals
	}
	return out, err
}

// meterResult folds a finished cell's simulated cycles into the Options'
// throughput meter (when one is set) and strips the Result's host-timing
// fields, which vary run to run and would otherwise break the sweep
// engine's bit-identical determinism contract.
func (o Options) meterResult(r *gpu.Result) {
	if r == nil {
		return
	}
	if o.Meter != nil {
		o.Meter.Add(r.Cycles)
	}
	r.WallTime, r.SimCyclesPerSec = 0, 0
}

// Cell identifies one run of the full evaluation matrix.
type Cell struct {
	Workload string
	Model    gpu.Model
	Sched    string
}

// Matrix holds the results of the full workload x model x scheduler sweep
// that figures 7, 8, and 9 all read from.
type Matrix struct {
	Workloads []kernels.Workload
	Results   map[Cell]*gpu.Result
}

// RunMatrix executes the full evaluation sweep for the given options,
// fanning the workload x model x scheduler cells out over the Options' pool
// (o.Workers goroutines). Each cell builds its own workload program,
// configuration copy, scheduler, and simulator, so the results — and any
// error — are identical to a serial sweep regardless of worker count.
func RunMatrix(o Options) (*Matrix, error) { return runMatrix(o, Models) }

// runMatrix runs every workload x model x scheduler cell, workload-major.
func runMatrix(o Options, models []gpu.Model) (*Matrix, error) {
	ws, err := o.workloads()
	if err != nil {
		return nil, err
	}
	p := o.basePoint(0) // the model is set per cell below
	pts := make([]point, 0, len(ws)*len(models)*len(SchedulerNames))
	for _, w := range ws {
		p.workload = w.Name
		for _, model := range models {
			p.model = model
			pts = append(pts, p.under(SchedulerNames...)...)
		}
	}
	out, err := o.simulate([][]point{pts})
	if err != nil {
		return nil, err
	}
	m := &Matrix{Workloads: ws, Results: make(map[Cell]*gpu.Result, len(pts))}
	for i, p := range pts {
		m.Results[Cell{p.workload, p.model, p.sched}] = out[0][i].res
	}
	return m, nil
}

// Get returns the result for one cell, panicking on a missing cell (a
// programming error in a figure runner).
func (m *Matrix) Get(workload string, model gpu.Model, sched string) *gpu.Result {
	r, err := m.lookup(workload, model, sched)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// lookup returns the result for one cell, or an error on a missing cell,
// for emitters that must fail cleanly instead of panicking mid-file.
func (m *Matrix) lookup(workload string, model gpu.Model, sched string) (*gpu.Result, error) {
	r, ok := m.Results[Cell{workload, model, sched}]
	if !ok {
		return nil, fmt.Errorf("exp: matrix missing cell %s/%v/%s", workload, model, sched)
	}
	return r, nil
}
