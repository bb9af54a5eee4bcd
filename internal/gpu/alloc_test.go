package gpu

// Allocation pins for the engine's per-cycle paths, extending the pattern of
// faults.TestDisarmedSitesZeroAlloc: the steady-state dense tick and the
// fast-forward skip/replay path must allocate nothing once the machine is
// warmed up. The budgets below are a table with explicit numbers so an
// intentional regression requires editing a constant, and an accidental one
// fails loudly.
//
// These are in-package tests: they drive the phase list cycle by cycle the
// way RunContext does, which needs access to phaseList, now, and the
// host-kernel materialization. The scheduler is a local FIFO because
// internal/core imports this package (the real schedulers are pinned by the
// whole-cell budgets in internal/exp).

import (
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
)

// allocFIFO is a minimal IdleAware TBScheduler: FIFO dispatch onto the first
// fitting SMX, quiescent after a single nil Select.
type allocFIFO struct {
	queue []*KernelInstance
	head  int
}

func (f *allocFIFO) Name() string              { return "alloc-fifo" }
func (f *allocFIFO) Enqueue(k *KernelInstance) { f.queue = append(f.queue, k) }

func (f *allocFIFO) Select(d Dispatcher) (*KernelInstance, int) {
	for f.head < len(f.queue) {
		ki := f.queue[f.head]
		if ki.Exhausted() {
			f.head++
			continue
		}
		tb := ki.PeekTB()
		for x := 0; x < d.NumSMX(); x++ {
			if d.CanFit(x, tb) {
				return ki, x
			}
		}
		return nil, 0
	}
	return nil, 0
}

func (f *allocFIFO) IdleSelectPeriod() int   { return 1 }
func (f *allocFIFO) SkipIdleSelects(uint64)  {}
func (f *allocFIFO) SkipEmptySelects(uint64) {}

// startAlloc builds a simulator for prog and materializes the host kernel
// exactly as RunContext does, so tests can step the phase list themselves.
func startAlloc(t *testing.T, prog *isa.Kernel, dense bool) *Simulator {
	t.Helper()
	cfg := config.SmallTest()
	s, err := New(Options{Config: &cfg, Scheduler: &allocFIFO{}, Model: DTBL, DenseClock: dense})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LaunchHost(prog); err != nil {
		t.Fatal(err)
	}
	s.ran = true
	s.materializeHost()
	s.lastProgress = s.progress()
	return s
}

// denseStep is one dense engine cycle: every phase ticks, now advances by 1.
func denseStep(t *testing.T, s *Simulator) {
	for _, ph := range s.phaseList {
		if err := ph.Tick(s.now); err != nil {
			t.Fatal(err)
		}
	}
	s.now++
}

// ffStep is one fast-forward engine iteration: tick every phase, merge the
// NextEvent horizons, and credit the skipped span — the loop body of
// RunContext under the default clock.
func ffStep(t *testing.T, s *Simulator) {
	for _, ph := range s.phaseList {
		if err := ph.Tick(s.now); err != nil {
			t.Fatal(err)
		}
	}
	next := s.now + 1
	horizon := uint64(NoEvent)
	for _, ph := range s.phaseList {
		if h := ph.NextEvent(next); h < horizon {
			horizon = h
		}
	}
	if horizon > s.maxCycles {
		horizon = s.maxCycles
	}
	if horizon > next {
		span := horizon - next
		for _, ph := range s.phaseList {
			ph.Skip(span)
		}
		next = horizon
	}
	s.now = next
}

// dispatchAll steps the engine until every thread block of the (single) host
// kernel is resident, leaving the machine in steady-state execution.
func dispatchAll(t *testing.T, s *Simulator, step func(*testing.T, *Simulator), totalTBs uint64) {
	t.Helper()
	for i := 0; s.tbsDispatched < totalTBs; i++ {
		if i > 1_000_000 {
			t.Fatalf("only %d of %d TBs dispatched after 1M steps", s.tbsDispatched, totalTBs)
		}
		step(t, s)
	}
	if s.done() {
		t.Fatal("workload completed during warm-up; grow the streams")
	}
}

// steadyProg builds a host kernel whose blocks saturate the SmallTest
// machine and then execute a long mixed compute/load/store stream — enough
// cycles of steady-state work that the measured windows below never see a
// dispatch or retirement.
func steadyProg(computeLatency, insts int) *isa.Kernel {
	kb := isa.NewKernel("steady")
	for tb := 0; tb < 8; tb++ {
		base := uint64(tb) * 1 << 20
		b := isa.NewTB(64)
		for i := 0; i < insts; i++ {
			switch i % 4 {
			case 0:
				off := base + uint64(i)*512
				b.Load(func(tid int) uint64 { return off + uint64(tid)*4 })
			case 3:
				off := base + uint64(i)*512
				b.Store(func(tid int) uint64 { return 0x4000_0000 + off + uint64(tid)*4 })
			default:
				b.Compute(computeLatency)
			}
		}
		kb.Add(b.Build())
	}
	return kb.Build()
}

// TestEnginePathAllocPins drives the two per-cycle engine paths to steady
// state and pins their allocation rate. Budgets are exact: 0 allocations per
// engine iteration. Raising one is an explicit, reviewed decision.
func TestEnginePathAllocPins(t *testing.T) {
	cases := []struct {
		name   string
		dense  bool
		prog   *isa.Kernel
		step   func(*testing.T, *Simulator)
		rounds int
		budget float64
	}{
		// The dense tick: every phase processed on every cycle, warps
		// issuing compute, loads (MSHR insert/merge/expire), and stores.
		{name: "steady-state-dense-tick", dense: true, prog: steadyProg(4, 4000), step: denseStep, rounds: 500, budget: 0},
		// The fast-forward path: long compute latencies force horizon
		// merges, span skips, and SkipIdle/Skip replays every iteration.
		{name: "idle-fast-forward-replay", dense: false, prog: steadyProg(500, 400), step: ffStep, rounds: 200, budget: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startAlloc(t, tc.prog, tc.dense)
			dispatchAll(t, s, tc.step, uint64(len(tc.prog.TBs)))
			allocs := testing.AllocsPerRun(tc.rounds, func() { tc.step(t, s) })
			if s.done() {
				t.Fatal("workload completed inside the measured window; grow the streams")
			}
			if allocs > tc.budget {
				t.Errorf("%s: %.2f allocs per engine iteration, budget %.0f", tc.name, allocs, tc.budget)
			}
		})
	}
}
