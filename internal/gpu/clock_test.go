package gpu_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// clockSchedulers builds every registered TB scheduler policy fresh for a
// config, in the shape the differential matrix iterates over. Every policy
// implements gpu.IdleAware, so these cover both quiescence proofs the
// fast-forward clock uses (single-nil for the global queues, full-round for
// the per-SMX cursors).
func clockSchedulers(cfg *config.GPU) map[string]func() gpu.TBScheduler {
	mks := make(map[string]func() gpu.TBScheduler)
	for _, info := range core.Schedulers() {
		info := info
		mks[info.Name] = func() gpu.TBScheduler { return info.New(cfg) }
	}
	return mks
}

// clockRun executes one cell with every observable armed — sampling,
// attribution, auditing, and all four trace hooks captured into an ordered
// log — under the requested clocking. The returned Result has its host-timing
// fields zeroed (the only legitimately non-deterministic outputs); everything
// else must match its dense twin exactly.
func clockRun(t *testing.T, dense bool, model gpu.Model, cfg config.GPU,
	sched gpu.TBScheduler, k *isa.Kernel) (*gpu.Result, []string, error) {
	t.Helper()
	var log []string
	sim := gpu.MustNew(gpu.Options{
		Config:      &cfg,
		Scheduler:   sched,
		Model:       model,
		SampleEvery: 64,
		Attribution: true,
		Audit:       true,
		DenseClock:  dense,
		TraceDispatch: func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
			log = append(log, fmt.Sprintf("dispatch k%d tb%d smx%d @%d", ki.ID, tbIndex, smxID, cycle))
		},
		TraceBlockDone: func(ki *gpu.KernelInstance, tbIndex, smxID int, dispatchCycle, cycle uint64) {
			log = append(log, fmt.Sprintf("done k%d tb%d smx%d %d..%d", ki.ID, tbIndex, smxID, dispatchCycle, cycle))
		},
		TraceQueue: func(ev gpu.QueueEvent) {
			log = append(log, fmt.Sprintf("queue %d %s smx%d @%d", ev.Kind, ev.Queue, ev.SMX, ev.Cycle))
		},
		TraceSample: func(s gpu.Sample) {
			log = append(log, fmt.Sprintf("sample @%d ipc=%.6f tbs=%d", s.Cycle, s.IPC, s.ResidentTBs))
		},
	})
	mustLaunch(t, sim, k)
	res, err := sim.Run()
	if res != nil {
		res.WallTime, res.SimCyclesPerSec = 0, 0
	}
	return res, log, err
}

// diffClocks runs the same cell under both clockings and fails unless the
// Results and the full trace-event streams are identical.
func diffClocks(t *testing.T, model gpu.Model, cfg config.GPU,
	newSched func() gpu.TBScheduler, k *isa.Kernel) {
	t.Helper()
	dense, denseLog, denseErr := clockRun(t, true, model, cfg, newSched(), k)
	ff, ffLog, ffErr := clockRun(t, false, model, cfg, newSched(), k)
	if denseErr != nil || ffErr != nil {
		t.Fatalf("unexpected errors: dense=%v ff=%v", denseErr, ffErr)
	}
	if !reflect.DeepEqual(dense, ff) {
		t.Errorf("Results diverge:\ndense: %+v\nff:    %+v", dense, ff)
	}
	if !reflect.DeepEqual(denseLog, ffLog) {
		t.Errorf("trace streams diverge: dense %d events, ff %d events",
			len(denseLog), len(ffLog))
		for i := 0; i < len(denseLog) && i < len(ffLog); i++ {
			if denseLog[i] != ffLog[i] {
				t.Errorf("first divergence at event %d:\ndense: %s\nff:    %s",
					i, denseLog[i], ffLog[i])
				break
			}
		}
	}
}

// TestClockEquivalenceMatrix is the core differential guarantee: for every
// scheduler under both dynamic-parallelism models, a dynamic-launch workload
// produces byte-identical Results, timelines, and trace streams whether the
// engine steps densely or fast-forwards between event horizons.
func TestClockEquivalenceMatrix(t *testing.T) {
	cfg := config.SmallTest()
	for _, model := range gpu.Models() {
		for name, mk := range clockSchedulers(&cfg) {
			t.Run(fmt.Sprintf("%v/%s", model, name), func(t *testing.T) {
				diffClocks(t, model, cfg, mk, launchingKernel(6, 3))
			})
		}
	}
}

// TestClockEquivalenceBackpressure pins the hard case for idle-span elision:
// bounded launch queues put warps into launch-stall loops whose every retry
// cycle is accounted (LaunchStallCycles), and queue-frees cross component
// boundaries within a cycle. Both overflow policies must stay cycle-exact.
func TestClockEquivalenceBackpressure(t *testing.T) {
	for _, policy := range []config.OverflowPolicy{config.StallWarp, config.DropToKMU} {
		t.Run(fmt.Sprintf("dtbl-agg-%v", policy), func(t *testing.T) {
			cfg := config.SmallTest()
			cfg.DTBLAggBufferEntries = 2
			cfg.DTBLOverflowPolicy = policy
			diffClocks(t, gpu.DTBL, cfg,
				func() gpu.TBScheduler { return core.NewRoundRobin() },
				overflowWorkload(4, 6))
		})
	}
	t.Run("cdp-kmu-pool", func(t *testing.T) {
		cfg := config.SmallTest()
		cfg.KMUPendingCapacity = 1
		cfg.CDPLaunchLatency = 40
		diffClocks(t, gpu.CDP, cfg,
			func() gpu.TBScheduler { return core.NewRoundRobin() },
			overflowWorkload(2, 5))
	})
	t.Run("pmk-taskq", func(t *testing.T) {
		// PMK's task queue is StallWarp-only: a producer that finds it
		// full spins, with every retry cycle accounted.
		cfg := config.SmallTest()
		cfg.PMKTaskQueueEntries = 2
		diffClocks(t, gpu.PMK, cfg,
			func() gpu.TBScheduler { return core.NewRoundRobin() },
			overflowWorkload(4, 6))
	})
}

// TestClockEquivalenceDeadlock checks failure-path equivalence: the watchdog
// must fire on the same cycle with an identical report under both clockings,
// so fast-forward can never skip a simulation into or past a deadlock
// verdict.
func TestClockEquivalenceDeadlock(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MaxConcurrentKernels = 4
	cfg.KMUPendingCapacity = 2
	cfg.CDPLaunchLatency = 100

	run := func(dense bool) error {
		sim := gpu.MustNew(gpu.Options{
			Config:           &cfg,
			Scheduler:        core.NewRoundRobin(),
			Model:            gpu.CDP,
			WatchdogInterval: 2_000,
			DenseClock:       dense,
		})
		mustLaunch(t, sim, deadlockWorkload(20, 2))
		_, err := sim.Run()
		return err
	}
	denseErr, ffErr := run(true), run(false)
	var denseDL, ffDL *gpu.DeadlockError
	if !errors.As(denseErr, &denseDL) || !errors.As(ffErr, &ffDL) {
		t.Fatalf("want DeadlockError from both clocks, got dense=%v ff=%v", denseErr, ffErr)
	}
	if !reflect.DeepEqual(denseDL, ffDL) {
		t.Errorf("deadlock reports diverge:\ndense: %+v\nff:    %+v", denseDL, ffDL)
	}
}

// TestClockEquivalenceCycleLimit checks the other failure path and the
// horizon clamp: with the watchdog off, a stuck machine must run out the
// MaxCycles clock — not fast-forward past it — and report identically.
func TestClockEquivalenceCycleLimit(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MaxConcurrentKernels = 4
	cfg.KMUPendingCapacity = 2
	cfg.CDPLaunchLatency = 100

	run := func(dense bool) error {
		sim := gpu.MustNew(gpu.Options{
			Config:     &cfg,
			Scheduler:  core.NewRoundRobin(),
			Model:      gpu.CDP,
			NoWatchdog: true,
			MaxCycles:  30_000,
			DenseClock: dense,
		})
		mustLaunch(t, sim, deadlockWorkload(20, 2))
		_, err := sim.Run()
		return err
	}
	denseErr, ffErr := run(true), run(false)
	var denseCL, ffCL *gpu.CycleLimitError
	if !errors.As(denseErr, &denseCL) || !errors.As(ffErr, &ffCL) {
		t.Fatalf("want CycleLimitError from both clocks, got dense=%v ff=%v", denseErr, ffErr)
	}
	if !reflect.DeepEqual(denseCL, ffCL) {
		t.Errorf("cycle-limit reports diverge:\ndense: %+v\nff:    %+v", denseCL, ffCL)
	}
}

// TestClockSampleCyclesPinned is the periodic-tick regression test: the
// sampler period is a horizon source, so no skipped span may ever jump over
// a scheduled sample. Every sample must land on an exact multiple of
// SampleEvery — deliberately an odd period, so misaligned skips cannot hide —
// and the fast-forward sample cycles must equal the dense ones one for one.
func TestClockSampleCyclesPinned(t *testing.T) {
	cfg := config.SmallTest()
	const every = 97

	sample := func(dense bool) []uint64 {
		var cycles []uint64
		sim := gpu.MustNew(gpu.Options{
			Config:      &cfg,
			Scheduler:   core.NewRoundRobin(),
			Model:       gpu.CDP,
			SampleEvery: every,
			DenseClock:  dense,
			TraceSample: func(s gpu.Sample) { cycles = append(cycles, s.Cycle) },
		})
		mustLaunch(t, sim, launchingKernel(4, 2))
		if _, err := sim.Run(); err != nil {
			t.Fatalf("dense=%v: %v", dense, err)
		}
		return cycles
	}

	denseCycles, ffCycles := sample(true), sample(false)
	if len(ffCycles) == 0 {
		t.Fatal("fast-forward run took no samples")
	}
	for i, c := range ffCycles {
		if c%every != 0 {
			t.Errorf("sample %d at cycle %d, not a multiple of %d (skip jumped the sampler)",
				i, c, every)
		}
	}
	if !reflect.DeepEqual(denseCycles, ffCycles) {
		t.Errorf("sample cycles diverge:\ndense: %v\nff:    %v", denseCycles, ffCycles)
	}
}

// opaqueScheduler hides the rr scheduler's IdleAware extension, modelling a
// third-party policy that predates the fast-forward clock.
type opaqueScheduler struct{ inner gpu.TBScheduler }

func (o opaqueScheduler) Name() string                                 { return o.inner.Name() }
func (o opaqueScheduler) Enqueue(k *gpu.KernelInstance)                { o.inner.Enqueue(k) }
func (o opaqueScheduler) Select(d gpu.Dispatcher) (*gpu.KernelInstance, int) {
	return o.inner.Select(d)
}

// TestClockDenseFallbackNonIdleAware checks the degradation contract: a
// scheduler without the IdleAware extension pins the TB phase to every cycle,
// so fast-forward silently degrades to dense stepping around it — slower, but
// still exactly equivalent.
func TestClockDenseFallbackNonIdleAware(t *testing.T) {
	cfg := config.SmallTest()
	diffClocks(t, gpu.CDP, cfg,
		func() gpu.TBScheduler { return opaqueScheduler{core.NewRoundRobin()} },
		launchingKernel(5, 2))
}
