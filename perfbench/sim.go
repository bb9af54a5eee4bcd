package main

import (
	"context"
	"fmt"
	"time"

	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/spec"
	"laperm/internal/telemetry"
)

// buildPrograms builds every Table II program at the scale, filling the
// kernels memo the way a process's first runs would, and returns the time
// it took: the kernels layer's share of set-up.
func buildPrograms(scale kernels.Scale) time.Duration {
	start := time.Now()
	for _, w := range kernels.All() {
		w.Build(scale)
	}
	return time.Since(start)
}

// simInstance runs sim-dtbl or sim-cdp: one small-scale cell per op, one op
// in flight. Each block runs every workload × registered scheduler of the
// model once.
type simInstance struct {
	plan *blockPlan[cell]
	ref  map[string]string
}

func startSim(model string) startFunc {
	return func(seed uint64, _ string) (instance, time.Duration, error) {
		ref, err := loadReference()
		if err != nil {
			return nil, 0, err
		}
		build := buildPrograms(kernels.ScaleSmall)
		return &simInstance{plan: newBlockPlan(cells([]string{model}), seed), ref: ref.Small}, build, nil
	}
}

func (s *simInstance) blockLen() int { return s.plan.blockLen() }

func (s *simInstance) step(ctx context.Context, i int, tr *tracer) []sample {
	c := s.plan.at(i)
	sp := spec.RunSpec{Workload: c.Workload, Scale: "small", Model: c.Model, Scheduler: c.Scheduler}
	var (
		f         *telemetry.Flight
		cc        coreCounts
		customize func(*gpu.Options)
	)
	if tr != nil {
		f = tr.flight(fmt.Sprintf("%d %s", i, c.key()))
		customize = func(o *gpu.Options) {
			o.Scheduler = wrapScheduler(o.Scheduler, &cc)
			o.TraceSpan = func(name string, start, end time.Time) { tr.span(f, "", "gpu", name, start, end) }
		}
	}
	start := time.Now()
	sim, _, err := sp.BuildWith(customize)
	built := time.Now()
	var res *gpu.Result
	if err == nil {
		res, err = sim.RunContext(ctx)
	}
	end := time.Now()
	if tr != nil {
		tr.span(f, "", "spec", "build", start, built)
		tr.span(f, "", "bench", "op", start, end)
		tr.addRun(res, err)
		tr.addCore(cc)
	}
	got, err := outcome(res, err)
	if err == nil {
		err = check(s.ref, c.key(), got)
	}
	return []sample{{class: "cold", dur: end.Sub(start), err: err}}
}

func (s *simInstance) close() error { return nil }
