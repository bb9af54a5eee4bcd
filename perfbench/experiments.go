package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"laperm/internal/exp"
	"laperm/internal/kernels"
)

// expWorkers is the experiment pool width of experiments-tiny: the two
// cores of the machine the benchmark was sized on.
const expWorkers = 2

// expInstance runs experiments-tiny: one Experiment.Run of one experiment on
// one workload at tiny scale per op, one op in flight. Each block runs
// every experiment id on every workload once.
type expInstance struct {
	plan *blockPlan[expOp]
	ref  map[string]string
}

func startExperiments(seed uint64, _ string) (instance, time.Duration, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, 0, err
	}
	build := buildPrograms(kernels.ScaleTiny)
	return &expInstance{plan: newBlockPlan(expOps(), seed), ref: ref.Experiments}, build, nil
}

func (e *expInstance) blockLen() int { return e.plan.blockLen() }

// runExperiment runs one experiment op and returns its report.
func runExperiment(op expOp) ([]byte, error) {
	ex, ok := exp.ByID(op.ID)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", op.ID)
	}
	var buf bytes.Buffer
	err := ex.Run(exp.Options{Scale: kernels.ScaleTiny, Workloads: []string{op.Workload}, Workers: expWorkers}, &buf)
	return buf.Bytes(), err
}

func (e *expInstance) step(_ context.Context, i int, tr *tracer) []sample {
	op := e.plan.at(i)
	var alloc0 uint64
	if tr != nil {
		alloc0 = allocBytes()
	}
	start := time.Now()
	report, err := runExperiment(op)
	end := time.Now()
	if tr != nil {
		alloc := allocBytes() - alloc0
		f := tr.flight(fmt.Sprintf("%d %s", i, op.key()))
		tr.span(f, "", "bench", "op", start, end)
		tr.span(f, "", "exp", op.ID, start, end)
		tr.addExp(op.ID, end.Sub(start), alloc)
	}
	if err == nil {
		err = check(e.ref, op.key(), textDigest(report))
	}
	return []sample{{class: "cold", dur: end.Sub(start), err: err}}
}

func (e *expInstance) close() error { return nil }
