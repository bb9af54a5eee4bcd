package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/spec"
)

// simulate runs one cell in-process and returns its outcome.
func simulate(c cell, scale string, customize func(*gpu.Options)) (string, error) {
	sp := spec.RunSpec{Workload: c.Workload, Scale: scale, Model: c.Model, Scheduler: c.Scheduler}
	sim, _, err := sp.BuildWith(customize)
	if err != nil {
		return "", err
	}
	return outcome(sim.Run())
}

// writeReference recomputes every reference outcome and writes the file.
// The outcomes are deterministic, so regenerating at the same commit
// rewrites the same bytes.
func writeReference(path string) error {
	ref := reference{Small: map[string]string{}, Tiny: map[string]string{}, Experiments: map[string]string{}}
	var mu sync.Mutex
	pool := exp.Pool{Workers: 2}
	fill := func(table map[string]string, keys []string, eval func(i int) (string, error)) error {
		return pool.Run(len(keys), func(i int) error {
			got, err := eval(i)
			if err != nil {
				return fmt.Errorf("%s: %w", keys[i], err)
			}
			mu.Lock()
			table[keys[i]] = got
			mu.Unlock()
			return nil
		})
	}
	keys := func(cs []cell) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = c.key()
		}
		return out
	}

	small := cells([]string{"dtbl", "cdp"})
	if err := fill(ref.Small, keys(small), func(i int) (string, error) { return simulate(small[i], "small", nil) }); err != nil {
		return err
	}
	tiny := cells(gpu.ModelNames())
	if err := fill(ref.Tiny, keys(tiny), func(i int) (string, error) { return simulate(tiny[i], "tiny", nil) }); err != nil {
		return err
	}
	ops := expOps()
	opKeys := make([]string, len(ops))
	for i, op := range ops {
		opKeys[i] = op.key()
	}
	if err := fill(ref.Experiments, opKeys, func(i int) (string, error) {
		report, err := runExperiment(ops[i])
		return textDigest(report), err
	}); err != nil {
		return err
	}

	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
