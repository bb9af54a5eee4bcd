package gpu

import (
	"context"
	"errors"
	"testing"

	"laperm/internal/config"
	"laperm/internal/faults"
	"laperm/internal/isa"
)

// TestRunContextReleasesMemory: however a run ends — a result, a deadlock,
// the cycle limit, cancellation, an injected fault or nothing to run — the
// simulator hands its memory hierarchy back and keeps no reference to it,
// so nothing after the run can read caches a later run has drawn.
func TestRunContextReleasesMemory(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	fault, err := faults.Parse("gpu.run.poll=error:n=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Parents filling every TB slot, each launching more children than
	// the KMU pool and KDU can absorb: a circular wait.
	parents := isa.NewKernel("deadlock-parent")
	for i := 0; i < 16; i++ {
		b := isa.NewTB(32).Compute(2)
		for c := 0; c < 7; c++ {
			b.Launch(c, isa.NewKernel("deadlock-child").Add(isa.NewTB(32).Compute(1).Build()).Build())
		}
		parents.Add(b.Compute(2).Build())
	}
	deadlock := parents.Build()

	cases := []struct {
		name string
		opts Options
		prog *isa.Kernel // nil: nothing launched
		ctx  context.Context
		want func(error) bool
	}{
		{"result", Options{}, steadyProg(4, 40), context.Background(), func(err error) bool { return err == nil }},
		{"deadlock", Options{Model: CDP, WatchdogInterval: 2_000}, deadlock, context.Background(),
			func(err error) bool { var e *DeadlockError; return errors.As(err, &e) }},
		{"cycle-limit", Options{MaxCycles: 100}, steadyProg(4, 4000), context.Background(),
			func(err error) bool { var e *CycleLimitError; return errors.As(err, &e) }},
		{"cancel", Options{}, steadyProg(4, 40), canceled,
			func(err error) bool { var e *CanceledError; return errors.As(err, &e) }},
		{"fault", Options{Faults: fault}, steadyProg(4, 4000), context.Background(), faults.IsInjected},
		{"nothing-to-run", Options{}, nil, context.Background(), func(err error) bool { return err != nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.SmallTest()
			cfg.MaxConcurrentKernels = 4
			cfg.KMUPendingCapacity = 2
			cfg.CDPLaunchLatency = 100
			opts := tc.opts
			opts.Config, opts.Scheduler = &cfg, &allocFIFO{}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.prog != nil {
				if err := s.LaunchHost(tc.prog); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.RunContext(tc.ctx); !tc.want(err) {
				t.Fatalf("RunContext: unexpected error %v", err)
			}
			if s.memsys != nil {
				t.Error("simulator still holds its memory hierarchy after the run")
			}
			if _, err := s.RunContext(tc.ctx); err == nil {
				t.Error("second RunContext succeeded")
			}
		})
	}
}
