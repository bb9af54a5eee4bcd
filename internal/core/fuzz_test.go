package core_test

import (
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// FuzzSchedulerDispatch feeds randomised launch traces through every
// registered TB scheduler under every registered dynamic-parallelism model
// with the invariant auditor armed: no run may error, lose a thread block,
// or leave the engine accounting inconsistent. The fuzz bytes shape the
// workload (parent count, children per parent, child width, nesting) and the
// launch-queue bounds.
func FuzzSchedulerDispatch(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(1), uint8(0), uint8(0))
	f.Add(uint8(8), uint8(3), uint8(2), uint8(1), uint8(3))
	f.Add(uint8(1), uint8(6), uint8(1), uint8(1), uint8(2))
	f.Add(uint8(12), uint8(0), uint8(3), uint8(0), uint8(1))

	f.Fuzz(func(t *testing.T, nParents, perParent, childTBs, nest, bound uint8) {
		parents := int(nParents%12) + 1
		launches := int(perParent % 4)
		width := int(childTBs%3) + 1
		deep := nest%2 == 1

		cfg := config.SmallTest()
		// Exercise the bounded queues without constructing a deadlock:
		// DropToKMU always makes progress, and the KMU pool bound stays
		// comfortably above the KDU drain rate.
		switch bound % 3 {
		case 0: // unbounded
			cfg.KMUPendingCapacity = 0
			cfg.DTBLAggBufferEntries = 0
			cfg.PMKTaskQueueEntries = 0
		case 1:
			cfg.KMUPendingCapacity = 64
			cfg.DTBLAggBufferEntries = 8
			cfg.DTBLOverflowPolicy = config.DropToKMU
			// PMK launches always stall on a full queue (no KMU to demote
			// to), so its bound stays KMU-pool-sized here where deep
			// nesting is allowed.
			cfg.PMKTaskQueueEntries = 64
		case 2:
			cfg.KMUPendingCapacity = 64
			cfg.DTBLAggBufferEntries = 8
			cfg.DTBLOverflowPolicy = config.StallWarp
			cfg.PMKTaskQueueEntries = 8
			// StallWarp can genuinely deadlock when every TB slot is
			// held by a block stalled at a launch (the scenario
			// TestDeadlockWatchdogReportsCircularWait constructs on
			// purpose). Keep the launching blocks to half the machine
			// and the children launch-free so the buffer always drains.
			deep = false
			if max := cfg.NumSMX * cfg.TBsPerSMX / 2; parents > max {
				parents = max
			}
		}

		leaf := func(i int) *isa.Kernel {
			kb := isa.NewKernel("leaf")
			for c := 0; c < width; c++ {
				kb.Add(isa.NewTB(32).Compute(1 + i%3).Build())
			}
			return kb.Build()
		}
		kb := isa.NewKernel("root")
		wantTBs := parents
		for i := 0; i < parents; i++ {
			b := isa.NewTB(32).Compute(1)
			for c := 0; c < launches; c++ {
				child := leaf(i + c)
				wantTBs += width
				if deep {
					mid := isa.NewKernel("mid").
						Add(isa.NewTB(32).Compute(1).Launch(0, child).Build()).Build()
					wantTBs++ // the mid TB itself
					b.Launch(c, mid)
				} else {
					b.Launch(c, child)
				}
			}
			kb.Add(b.Compute(1).Build())
		}
		k := kb.Build()

		for _, model := range gpu.Models() {
			for _, info := range core.Schedulers() {
				name := info.Name
				var kept []gpu.KernelInstance
				sim := gpu.MustNew(gpu.Options{
					Config:           &cfg,
					Scheduler:        info.New(&cfg),
					Model:            model,
					Audit:            true,
					WatchdogInterval: 5_000,
					MaxCycles:        5_000_000,
					TraceKernel:      func(ki *gpu.KernelInstance, _ uint64) { kept = append(kept, *ki) },
				})
				if err := sim.LaunchHost(k); err != nil {
					t.Fatalf("%s/%v: LaunchHost: %v", name, model, err)
				}
				res, err := sim.Run()
				if err != nil {
					t.Fatalf("%s/%v (parents=%d launches=%d width=%d deep=%v bound=%d): %v",
						name, model, parents, launches, width, deep, bound%3, err)
				}
				if res.BlockCount != wantTBs {
					t.Fatalf("%s/%v: dispatched %d TBs, want %d (lost or duplicated work)",
						name, model, res.BlockCount, wantTBs)
				}
				for _, ki := range kept {
					if !ki.Complete() {
						t.Fatalf("%s/%v: kernel %d %q incomplete", name, model, ki.ID, ki.Prog.Name)
					}
				}
			}
		}
	})
}
