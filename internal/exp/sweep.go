package exp

import (
	"fmt"

	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/spec"
)

// RunOne simulates one workload under one (model, scheduler) pair.
func RunOne(w kernels.Workload, model gpu.Model, sched string, o Options) (*gpu.Result, error) {
	s := o.runSpec(model)
	s.Workload, s.Scheduler = w.Name, sched
	out, err := o.run(s)
	return out.res, err
}

// runSpec returns the RunSpec o describes for model, with no workload or
// scheduler chosen: the run options every point of o shares. The base
// machine, o.Config, is not part of it, so within one run equal specs are
// the same simulation. Studies vary copies of it.
func (o Options) runSpec(model gpu.Model) spec.RunSpec {
	return spec.RunSpec{
		Scale: o.Scale.String(), Model: model.String(), WarpPolicy: o.WarpPolicy.String(),
		SampleEvery: o.SampleEvery, Attribution: o.Attribution, DenseClock: o.DenseClock,
	}
}

// under lists s once under each of the named schedulers.
func under(s spec.RunSpec, scheds ...string) []spec.RunSpec {
	out := make([]spec.RunSpec, len(scheds))
	for i, sched := range scheds {
		out[i] = s
		out[i].Scheduler = sched
	}
	return out
}

// outcome is one simulated point: its spec, its result and, for an
// uncapped bound-bank scheduler, the stage-3 steal count
// (core.AdaptiveBind.Steals). The scheduler itself is not kept: its queues
// reference the finished run's kernels, and holding them would keep every
// simulated point's memory alive until the experiment renders.
type outcome struct {
	spec   spec.RunSpec
	res    *gpu.Result
	steals int64
}

// simulate is the experiment executor. It runs every distinct point of
// rows that o's memo does not already hold exactly once, on o's pool, and
// returns the outcomes laid out like rows. Points are told apart by their
// content hash, and claimed in the order they are first listed, so an
// error is the one a serial loop would return.
func (o Options) simulate(rows [][]spec.RunSpec) ([][]outcome, error) {
	done := o.memo
	if done == nil {
		done = make(map[string]outcome)
	}
	keys := make([][]string, len(rows))
	var todo []spec.RunSpec
	var todoKeys []string
	queued := make(map[string]bool)
	for i, row := range rows {
		keys[i] = make([]string, len(row))
		for j, s := range row {
			h, err := s.Hash()
			if err != nil {
				return nil, fmt.Errorf("exp: %w", err)
			}
			keys[i][j] = h
			if _, ok := done[h]; !ok && !queued[h] {
				queued[h] = true
				todo = append(todo, s)
				todoKeys = append(todoKeys, h)
			}
		}
	}
	results, err := sweep(o, len(todo), func(i int) (outcome, error) { return o.run(todo[i]) })
	if err != nil {
		return nil, err
	}
	for i, h := range todoKeys {
		done[h] = results[i]
	}
	out := make([][]outcome, len(rows))
	for i, row := range keys {
		out[i] = make([]outcome, len(row))
		for j, h := range row {
			out[i][j] = done[h]
		}
	}
	return out, nil
}

// run simulates one point, built by spec's assembler on o's base machine.
func (o Options) run(s spec.RunSpec) (outcome, error) {
	var bind *core.AdaptiveBind
	sim, _, err := s.BuildOn(o.Config, func(g *gpu.Options) { bind, _ = g.Scheduler.(*core.AdaptiveBind) })
	if err != nil {
		return outcome{}, fmt.Errorf("exp: %s/%s/%s: %w", s.Workload, s.Model, s.Scheduler, err)
	}
	res, err := sim.Run()
	if err != nil {
		return outcome{}, fmt.Errorf("exp: %s/%s/%s: %w", s.Workload, s.Model, s.Scheduler, err)
	}
	o.meterResult(res)
	out := outcome{spec: s, res: res}
	if bind != nil {
		out.steals = bind.Steals
	}
	return out, nil
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
	pts := make([]spec.RunSpec, 0, len(ws)*len(models)*len(SchedulerNames))
	for _, w := range ws {
		for _, model := range models {
			p := o.runSpec(model)
			p.Workload = w.Name
			pts = append(pts, under(p, SchedulerNames...)...)
		}
	}
	out, err := o.simulate([][]spec.RunSpec{pts})
	if err != nil {
		return nil, err
	}
	m := &Matrix{Workloads: ws, Results: make(map[Cell]*gpu.Result, len(pts))}
	for i, p := range pts {
		model, _ := gpu.ModelByName(p.Model)
		m.Results[Cell{p.Workload, model, p.Scheduler}] = out[0][i].res
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
