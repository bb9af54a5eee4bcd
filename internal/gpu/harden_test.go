package gpu_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// deadlockWorkload builds the circular wait of the acceptance criteria:
// enough single-warp parent TBs to occupy every TB slot of the machine, each
// launching several children. Under CDP with a small KMU pool and KDU, the
// parents stall at their launch instructions (pool full), the pool cannot
// drain (KDU full), the KDU cannot drain (children need SMX space), and SMX
// space never frees (the parents never retire) — a genuine scheduling
// deadlock the watchdog must convert into a *DeadlockError.
func deadlockWorkload(nParents, launchesPerParent int) *isa.Kernel {
	kb := isa.NewKernel("deadlock-parent")
	for i := 0; i < nParents; i++ {
		b := isa.NewTB(32).Compute(2)
		for c := 0; c < launchesPerParent; c++ {
			child := isa.NewKernel("deadlock-child").
				Add(isa.NewTB(32).Compute(1).Build()).Build()
			b.Launch(c, child)
		}
		kb.Add(b.Compute(2).Build())
	}
	return kb.Build()
}

func TestDeadlockWatchdogReportsCircularWait(t *testing.T) {
	cfg := config.SmallTest() // 4 SMXs x 4 TB slots = 16 resident TBs
	cfg.MaxConcurrentKernels = 4
	cfg.KMUPendingCapacity = 2
	cfg.CDPLaunchLatency = 100

	sim := gpu.MustNew(gpu.Options{
		Config:           &cfg,
		Scheduler:        core.NewRoundRobin(),
		Model:            gpu.CDP,
		WatchdogInterval: 2_000,
		Audit:            true,
	})
	// 16 parents fill every TB slot; 7 launches per parent exceed the
	// machine's total absorb capacity of 2 (pool) + 4 (KDU), so no parent
	// can ever finish its launch sequence and retire.
	if err := sim.LaunchHost(deadlockWorkload(16, 7)); err != nil {
		t.Fatal(err)
	}
	_, err := sim.Run()
	if err == nil {
		t.Fatal("circular-wait workload completed; expected DeadlockError")
	}
	var de *gpu.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run returned %T (%v), want *gpu.DeadlockError", err, err)
	}
	if de.Cycle >= gpu.DefaultMaxCycles/100 {
		t.Errorf("deadlock detected at cycle %d, want well under DefaultMaxCycles (%d)",
			de.Cycle, gpu.DefaultMaxCycles)
	}
	if de.TotalStuck == 0 || len(de.Stuck) == 0 {
		t.Fatalf("DeadlockError names no stuck kernels: %+v", de)
	}
	msg := de.Error()
	if !strings.Contains(msg, "deadlock-child") && !strings.Contains(msg, "deadlock-parent") {
		t.Errorf("DeadlockError message names no workload kernel:\n%s", msg)
	}
	// The stuck-kernel records must carry the diagnostic fields of the
	// acceptance criteria: priority and location.
	sawChild := false
	for _, sk := range de.Stuck {
		if sk.Name == "deadlock-child" {
			sawChild = true
			if sk.Priority != 1 {
				t.Errorf("stuck child priority = %d, want 1", sk.Priority)
			}
		}
		if sk.Where == "" {
			t.Errorf("stuck kernel %d has empty location", sk.ID)
		}
	}
	if !sawChild {
		t.Errorf("no stuck child kernel reported: %+v", de.Stuck)
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := config.SmallTest()
	sim := gpu.MustNew(gpu.Options{
		Config:           &cfg,
		Scheduler:        core.NewRoundRobin(),
		Model:            gpu.DTBL,
		WatchdogInterval: 50, // absurdly aggressive: must still not misfire
		Audit:            true,
	})
	mustLaunch(t, sim, launchingKernel(8, 3))
	if _, err := sim.Run(); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
}

// completionSet reduces a run to its multiset of completed kernels, for the
// backpressure-equivalence checks: bounded queues may reshuffle timing but
// must never lose or duplicate work.
func completionSet(t *testing.T, kept []gpu.KernelInstance) []string {
	t.Helper()
	var set []string
	for _, ki := range kept {
		if !ki.Complete() {
			t.Fatalf("kernel %d %q incomplete after Run", ki.ID, ki.Prog.Name)
		}
		set = append(set, fmt.Sprintf("%s/%dTBs", ki.Prog.Name, len(ki.Prog.TBs)))
	}
	sort.Strings(set)
	return set
}

// overflowWorkload launches childTBs-per-parent DTBL groups from a few
// parents, leaving most TB slots free so the machine always has room to
// drain the aggregation buffer (backpressure, not deadlock).
func overflowWorkload(nParents, launchesPerParent int) *isa.Kernel {
	kb := isa.NewKernel("ovf-parent")
	for i := 0; i < nParents; i++ {
		b := isa.NewTB(32).Compute(2)
		for c := 0; c < launchesPerParent; c++ {
			child := isa.NewKernel("ovf-child").
				Add(isa.NewTB(32).Compute(4).Build()).Build()
			b.Launch(c, child).Compute(2)
		}
		kb.Add(b.Build())
	}
	return kb.Build()
}

func TestAggBufferOverflowStallWarp(t *testing.T) {
	k := func() *isa.Kernel { return overflowWorkload(4, 6) }

	runWith := func(entries int, policy config.OverflowPolicy) (*gpu.Result, []gpu.KernelInstance) {
		cfg := config.SmallTest()
		cfg.DTBLAggBufferEntries = entries
		cfg.DTBLOverflowPolicy = policy
		var kept []gpu.KernelInstance
		sim := gpu.MustNew(gpu.Options{
			Config:      &cfg,
			Scheduler:   core.NewRoundRobin(),
			Model:       gpu.DTBL,
			Audit:       true,
			TraceKernel: keepKernels(&kept),
		})
		mustLaunch(t, sim, k())
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("entries=%d policy=%v: %v", entries, policy, err)
		}
		return res, kept
	}

	base, baseKept := runWith(0, config.StallWarp) // unbounded baseline
	if base.LaunchStallCycles != 0 || base.QueueOverflows != 0 {
		t.Fatalf("unbounded baseline reports backpressure: %+v", base)
	}

	// StallWarp: launches past the 2-entry buffer stall the warp.
	stall, stallKept := runWith(2, config.StallWarp)
	if stall.LaunchStallCycles == 0 {
		t.Error("StallWarp: LaunchStallCycles = 0, want > 0")
	}
	if stall.LaunchStallEpisodes == 0 {
		t.Error("StallWarp: LaunchStallEpisodes = 0, want > 0")
	}
	if stall.PeakAggEntries != 2 {
		t.Errorf("StallWarp: PeakAggEntries = %d, want capacity 2", stall.PeakAggEntries)
	}
	if stall.Cycles <= base.Cycles {
		t.Errorf("StallWarp run (%d cycles) not slower than unbounded (%d)",
			stall.Cycles, base.Cycles)
	}
	if !strings.Contains(stall.String(), "backpressure") {
		t.Errorf("Result.String() hides backpressure: %q", stall.String())
	}

	// DropToKMU: overflowing launches are demoted, counted, and pay the
	// CDP latency instead of stalling forever.
	drop, dropKept := runWith(2, config.DropToKMU)
	if drop.QueueOverflows == 0 {
		t.Error("DropToKMU: QueueOverflows = 0, want > 0")
	}

	// Identical final completion set across all three regimes.
	want := completionSet(t, baseKept)
	for name, kept := range map[string][]gpu.KernelInstance{"stall": stallKept, "drop": dropKept} {
		got := completionSet(t, kept)
		if len(got) != len(want) {
			t.Fatalf("%s: completed %d kernels, baseline %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: completion set diverges at %d: %q vs %q", name, i, got[i], want[i])
			}
		}
	}
}

func TestKMUPoolBackpressureCDP(t *testing.T) {
	cfg := config.SmallTest()
	cfg.KMUPendingCapacity = 1
	cfg.CDPLaunchLatency = 50
	var kept []gpu.KernelInstance
	sim := gpu.MustNew(gpu.Options{
		Config:      &cfg,
		Scheduler:   core.NewRoundRobin(),
		Model:       gpu.CDP,
		Audit:       true,
		TraceKernel: keepKernels(&kept),
	})
	// Few parents (machine keeps free slots), many launches against a
	// 1-entry pool: launches serialise but everything completes.
	mustLaunch(t, sim, overflowWorkload(2, 5))
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LaunchStallCycles == 0 {
		t.Error("LaunchStallCycles = 0, want > 0 with a 1-entry KMU pool")
	}
	if res.PeakKMUPending != 1 {
		t.Errorf("PeakKMUPending = %d, want 1", res.PeakKMUPending)
	}
	if want := 1 + 2*5; res.KernelCount != want { // host kernel + 2 parents x 5 children
		t.Errorf("KernelCount = %d, want %d", res.KernelCount, want)
	}
	completionSet(t, kept) // fails the test if anything is incomplete
}

func TestTraceQueueObservesBackpressure(t *testing.T) {
	var stalls, overflows int
	cfg := config.SmallTest()
	cfg.DTBLAggBufferEntries = 1
	cfg.DTBLOverflowPolicy = config.StallWarp
	sim := gpu.MustNew(gpu.Options{
		Config:    &cfg,
		Scheduler: core.NewRoundRobin(),
		Model:     gpu.DTBL,
		TraceQueue: func(ev gpu.QueueEvent) {
			switch ev.Kind {
			case gpu.QueueStall:
				stalls++
			case gpu.QueueOverflow:
				overflows++
			}
			if ev.Queue != "agg" {
				t.Errorf("queue = %q, want agg", ev.Queue)
			}
			if ev.Parent == nil || ev.Child == nil {
				t.Error("queue event missing parent or child")
			}
		},
	})
	mustLaunch(t, sim, overflowWorkload(2, 4))
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stalls == 0 {
		t.Error("no QueueStall events traced")
	}
	if overflows != 0 {
		t.Errorf("%d QueueOverflow events under StallWarp, want 0", overflows)
	}
	// One event per episode, not per retry cycle.
	if int64(stalls) != res.LaunchStallEpisodes {
		t.Errorf("traced %d stall events, result counts %d episodes", stalls, res.LaunchStallEpisodes)
	}
	if uint64(stalls) >= res.LaunchStallCycles && res.LaunchStallCycles > uint64(stalls) {
		t.Errorf("episodes %d vs stall cycles %d inconsistent", stalls, res.LaunchStallCycles)
	}
}

func TestAuditCleanAcrossSchedulersAndModels(t *testing.T) {
	cfg := config.SmallTest()
	cfg.DTBLAggBufferEntries = 4
	cfg.KMUPendingCapacity = 4
	cfg.PMKTaskQueueEntries = 4
	for _, model := range gpu.Models() {
		for _, info := range core.Schedulers() {
			sched := info.New(&cfg)
			sim := gpu.MustNew(gpu.Options{
				Config:           &cfg,
				Scheduler:        sched,
				Model:            model,
				Audit:            true,
				WatchdogInterval: 500,
				SampleEvery:      250,
			})
			mustLaunch(t, sim, overflowWorkload(3, 4))
			if _, err := sim.Run(); err != nil {
				t.Errorf("%s/%v: %v", sched.Name(), model, err)
			}
		}
	}
}

func TestNoWatchdogFallsBackToCycleLimit(t *testing.T) {
	cfg := config.SmallTest()
	cfg.MaxConcurrentKernels = 4
	cfg.KMUPendingCapacity = 2
	cfg.CDPLaunchLatency = 100
	sim := gpu.MustNew(gpu.Options{
		Config:     &cfg,
		Scheduler:  core.NewRoundRobin(),
		Model:      gpu.CDP,
		NoWatchdog: true,
		MaxCycles:  20_000,
	})
	mustLaunch(t, sim, deadlockWorkload(16, 7))
	_, err := sim.Run()
	var cle *gpu.CycleLimitError
	if !errors.As(err, &cle) {
		t.Fatalf("with NoWatchdog the deadlock should hit the cycle limit; got %T (%v)", err, err)
	}
	if cle.Live == 0 {
		t.Error("CycleLimitError.Live = 0, want live kernels in the report")
	}
}
