package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// randomWorkload builds a randomized dynamic-parallelism kernel: parents of
// varying sizes launching 0..3 children of varying shapes, some nested.
func randomWorkload(rng *rand.Rand) *isa.Kernel {
	mkTB := func(threads int, depth int) *isa.TB {
		b := isa.NewTB(threads).Resources(8+rng.Intn(24), rng.Intn(3)*512)
		ops := 1 + rng.Intn(8)
		for i := 0; i < ops; i++ {
			switch rng.Intn(3) {
			case 0:
				b.Compute(1 + rng.Intn(30))
			case 1:
				base := uint64(rng.Intn(1 << 18))
				b.Load(func(tid int) uint64 { return base + uint64(tid)*4 })
			case 2:
				base := uint64(rng.Intn(1 << 18))
				b.Store(func(tid int) uint64 { return base + uint64(tid)*8 })
			}
		}
		if depth > 0 {
			for c := 0; c < rng.Intn(3); c++ {
				childTBs := 1 + rng.Intn(3)
				ck := isa.NewKernel(fmt.Sprintf("child-d%d", depth))
				for i := 0; i < childTBs; i++ {
					ck.Add(mkChildTB(rng, depth-1))
				}
				b.Launch(rng.Intn(threads), ck.Build())
			}
		}
		return b.Build()
	}
	kb := isa.NewKernel("random")
	nParents := 4 + rng.Intn(12)
	for p := 0; p < nParents; p++ {
		kb.Add(mkTB(32*(1+rng.Intn(3)), 2))
	}
	return kb.Build()
}

// mkChildTB is split out to avoid unbounded mutual recursion with mkTB.
func mkChildTB(rng *rand.Rand, depth int) *isa.TB {
	b := isa.NewTB(32 * (1 + rng.Intn(2)))
	b.Compute(1 + rng.Intn(20))
	base := uint64(rng.Intn(1 << 18))
	b.Load(func(tid int) uint64 { return base + uint64(tid)*4 })
	if depth > 0 && rng.Intn(3) == 0 {
		grand := isa.NewKernel("grand").Add(mkChildTB(rng, depth-1)).Build()
		b.Launch(0, grand)
	}
	return b.Build()
}

// dispatchEvent is one observed dispatch, with a copy of its instance as it
// was at the dispatch (the instance itself is valid only during the run).
type dispatchEvent struct {
	ki    gpu.KernelInstance
	tb    int
	smx   int
	cycle uint64
}

// runTraced executes a workload under a scheduler, returning the dispatch
// trace and result.
func runTraced(t *testing.T, k *isa.Kernel, mk func(cfg *config.GPU) gpu.TBScheduler, model gpu.Model) ([]dispatchEvent, *gpu.Result) {
	t.Helper()
	cfg := config.SmallTest()
	var events []dispatchEvent
	sim := gpu.MustNew(gpu.Options{
		Config:    &cfg,
		Scheduler: mk(&cfg),
		Model:     model,
		TraceDispatch: func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
			events = append(events, dispatchEvent{*ki, tbIndex, smxID, cycle})
		},
	})
	if err := sim.LaunchHost(k); err != nil {
		t.Fatalf("launch: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return events, res
}

// schedulerFactories returns a constructor per registered policy, so the
// property tests sweep every scheduler in the registry.
func schedulerFactories() map[string]func(cfg *config.GPU) gpu.TBScheduler {
	mks := make(map[string]func(cfg *config.GPU) gpu.TBScheduler)
	for _, info := range core.Schedulers() {
		mks[info.Name] = info.New
	}
	return mks
}

// TestSchedulerInvariantsOnRandomWorkloads checks, for every scheduler and
// model across randomized workloads:
//  1. every thread block of every kernel instance is dispatched exactly once;
//  2. no thread block dispatches before its kernel's arrival cycle;
//  3. dispatch cycles are monotone;
//  4. all schedulers execute the same total work.
func TestSchedulerInvariantsOnRandomWorkloads(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		k := randomWorkload(rng)
		if err := k.Validate(); err != nil {
			t.Fatalf("trial %d: invalid workload: %v", trial, err)
		}
		for _, model := range gpu.Models() {
			var wantInsts int64 = -1
			for name, mk := range schedulerFactories() {
				events, res := runTraced(t, k, mk, model)

				// (1) exactly-once dispatch per (instance, tb).
				seen := make(map[int]map[int]bool)
				progs := make(map[int]*isa.Kernel)
				for _, e := range events {
					if seen[e.ki.ID] == nil {
						seen[e.ki.ID] = make(map[int]bool)
						progs[e.ki.ID] = e.ki.Prog
					}
					if seen[e.ki.ID][e.tb] {
						t.Fatalf("trial %d %s/%v: TB %d of kernel %d dispatched twice",
							trial, name, model, e.tb, e.ki.ID)
					}
					seen[e.ki.ID][e.tb] = true
				}
				for id, tbs := range seen {
					if len(tbs) != len(progs[id].TBs) {
						t.Fatalf("trial %d %s/%v: kernel %d dispatched %d of %d TBs",
							trial, name, model, id, len(tbs), len(progs[id].TBs))
					}
				}

				// (2) + (3).
				var last uint64
				for _, e := range events {
					if e.cycle < e.ki.ArriveCycle {
						t.Fatalf("trial %d %s/%v: kernel %d dispatched at %d before arrival %d",
							trial, name, model, e.ki.ID, e.cycle, e.ki.ArriveCycle)
					}
					if e.cycle < last {
						t.Fatalf("trial %d %s/%v: dispatch cycles not monotone", trial, name, model)
					}
					last = e.cycle
				}

				// (4).
				if wantInsts == -1 {
					wantInsts = res.ThreadInsts
				} else if res.ThreadInsts != wantInsts {
					t.Fatalf("trial %d %s/%v: executed %d thread-insts, others %d",
						trial, name, model, res.ThreadInsts, wantInsts)
				}
			}
		}
	}
}

// TestBindingInvariantOnRandomWorkloads: under SMX-Bind, every dynamic TB
// runs on its direct parent's SMX; under Adaptive-Bind it may run elsewhere
// only via stage-3 steals (counted by the scheduler).
func TestBindingInvariantOnRandomWorkloads(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		k := randomWorkload(rng)

		events, _ := runTraced(t, k, func(cfg *config.GPU) gpu.TBScheduler {
			return core.NewSMXBind(cfg.NumSMX, cfg.MaxPriorityLevels)
		}, gpu.DTBL)
		for _, e := range events {
			if e.ki.Parent != nil && e.smx != e.ki.BoundSMX {
				t.Fatalf("trial %d: SMX-Bind placed child of SMX %d on SMX %d",
					trial, e.ki.BoundSMX, e.smx)
			}
		}

		cfg := config.SmallTest()
		ab := core.NewAdaptiveBind(cfg.NumSMX, cfg.MaxPriorityLevels)
		var strayed int64
		sim := gpu.MustNew(gpu.Options{
			Config:    &cfg,
			Scheduler: ab,
			Model:     gpu.DTBL,
			TraceDispatch: func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
				if ki.Parent != nil && smxID != ki.BoundSMX {
					strayed++
				}
			},
		})
		if err := sim.LaunchHost(k); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if strayed > ab.Steals {
			t.Fatalf("trial %d: %d TBs off their bound SMX but only %d steals recorded",
				trial, strayed, ab.Steals)
		}
	}
}

// TestDeterminismAcrossSchedulersRandom re-runs each random workload twice
// per scheduler and requires bit-identical statistics.
func TestDeterminismAcrossSchedulersRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3000))
	k := randomWorkload(rng)
	for name, mk := range schedulerFactories() {
		_, a := runTraced(t, k, mk, gpu.DTBL)
		_, b := runTraced(t, k, mk, gpu.DTBL)
		if a.Cycles != b.Cycles || a.ThreadInsts != b.ThreadInsts || a.L1 != b.L1 || a.L2 != b.L2 {
			t.Errorf("%s: nondeterministic results:\n%v\n%v", name, a, b)
		}
	}
}
