package core_test

import (
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// This file replays the didactic example of Figure 4: a parent kernel with
// eight TBs (P0-P7) on a four-SMX GPU where each SMX holds exactly one TB.
// P2 launches two child TBs (C0-C1) and P4 launches four (C2-C5). The tests
// assert the defining property of each scheduling scheme shown in
// Figure 4(b)-(e).

// fig4Config builds a 4-SMX GPU where one 64-thread TB fills an SMX.
func fig4Config() *config.GPU {
	g := config.SmallTest()
	g.NumSMX = 4
	g.ThreadsPerSMX = 64
	g.TBsPerSMX = 1
	g.RegistersPerSMX = 64 * 64
	g.DTBLLaunchLatency = 1
	g.MaxPriorityLevels = 4
	return &g
}

// dispatchRecord is one observed TB placement.
type dispatchRecord struct {
	kernel string // "parent", "childA" (from P2), "childB" (from P4)
	tb     int
	smx    int
	cycle  uint64
}

// runFig4 executes the Figure 4(a) launch structure under the given
// scheduler and returns the dispatch trace plus a copy of every kernel
// instance (for kernel inspection) and the result.
func runFig4(t *testing.T, sched gpu.TBScheduler) ([]dispatchRecord, []gpu.KernelInstance, *gpu.Result) {
	t.Helper()
	// Each TB runs ~200 cycles of compute so dispatch "rounds" are well
	// separated; the launch executes early in the parent TB.
	mkTB := func() *isa.TB { return isa.NewTB(64).Resources(16, 0).ComputeN(10, 20).Build() }
	childA := isa.NewKernel("childA").Add(mkTB(), mkTB()).Build()
	childB := isa.NewKernel("childB").Add(mkTB(), mkTB(), mkTB(), mkTB()).Build()

	kb := isa.NewKernel("parent")
	for i := 0; i < 8; i++ {
		b := isa.NewTB(64).Resources(16, 0)
		switch i {
		case 2:
			b.Compute(2).Launch(0, childA)
		case 4:
			b.Compute(2).Launch(0, childB)
		}
		b.ComputeN(10, 20)
		kb.Add(b.Build())
	}

	var trace []dispatchRecord
	var kept []gpu.KernelInstance
	sim := gpu.MustNew(gpu.Options{
		Config:    fig4Config(),
		Scheduler: sched,
		Model:     gpu.DTBL,
		TraceDispatch: func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
			trace = append(trace, dispatchRecord{kernel: ki.Prog.Name, tb: tbIndex, smx: smxID, cycle: cycle})
		},
		TraceKernel: func(ki *gpu.KernelInstance, _ uint64) { kept = append(kept, *ki) },
	})
	if err := sim.LaunchHost(kb.Build()); err != nil {
		t.Fatalf("fig4 launch: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("fig4 run: %v", err)
	}
	if len(trace) != 8+2+4 {
		t.Fatalf("dispatched %d TBs, want 14", len(trace))
	}
	return trace, kept, res
}

func lastParentCycle(trace []dispatchRecord) uint64 {
	var last uint64
	for _, r := range trace {
		if r.kernel == "parent" && r.cycle > last {
			last = r.cycle
		}
	}
	return last
}

func firstChildCycle(trace []dispatchRecord) uint64 {
	first := ^uint64(0)
	for _, r := range trace {
		if r.kernel != "parent" && r.cycle < first {
			first = r.cycle
		}
	}
	return first
}

// boundSMXOf returns the BoundSMX of the named dynamic kernel.
func boundSMXOf(t *testing.T, kept []gpu.KernelInstance, name string) int {
	t.Helper()
	for _, ki := range kept {
		if ki.Prog.Name == name {
			return ki.BoundSMX
		}
	}
	t.Fatalf("kernel %s not found", name)
	return -1
}

// TestFig4b_RoundRobin: the baseline distributes parents evenly and all
// child TBs wait until every parent TB has dispatched (Figure 4(b)).
func TestFig4b_RoundRobin(t *testing.T) {
	trace, _, _ := runFig4(t, core.NewRoundRobin())

	// Parents dispatch in TB order, the first four exactly to SMX0..3,
	// and every SMX receives exactly two parent TBs. (P2 and P4 carry an
	// extra launch instruction, so the second round's SMX release order
	// can differ from the idealised equal-pace figure by a swap.)
	pIdx := 0
	perSMX := make([]int, 4)
	for _, r := range trace {
		if r.kernel != "parent" {
			continue
		}
		if r.tb != pIdx {
			t.Errorf("parent TBs out of order: got P%d at position %d", r.tb, pIdx)
		}
		if pIdx < 4 && r.smx != pIdx {
			t.Errorf("P%d on SMX%d, want SMX%d", r.tb, r.smx, pIdx)
		}
		perSMX[r.smx]++
		pIdx++
	}
	for s, n := range perSMX {
		if n != 2 {
			t.Errorf("SMX%d received %d parent TBs, want 2", s, n)
		}
	}
	// FCFS: no child dispatches before the last parent.
	if fc, lp := firstChildCycle(trace), lastParentCycle(trace); fc < lp {
		t.Errorf("RR dispatched a child at %d before last parent at %d", fc, lp)
	}
}

// TestFig4c_TBPri: prioritising dynamic TBs moves children ahead of the
// remaining parent TBs (Figure 4(c)): C0-C1 dispatch before P6-P7.
func TestFig4c_TBPri(t *testing.T) {
	trace, _, _ := runFig4(t, core.NewTBPri(4))

	var p6Cycle, c0Cycle uint64
	for _, r := range trace {
		if r.kernel == "parent" && r.tb == 6 {
			p6Cycle = r.cycle
		}
		if r.kernel == "childA" && r.tb == 0 {
			c0Cycle = r.cycle
		}
	}
	if c0Cycle >= p6Cycle {
		t.Errorf("TB-Pri: childA TB0 at %d should precede P6 at %d", c0Cycle, p6Cycle)
	}
	// All 14 TBs still complete (checked by runFig4), and children of
	// P4 (priority 1) also beat P7.
	var p7Cycle, c2Cycle uint64
	for _, r := range trace {
		if r.kernel == "parent" && r.tb == 7 {
			p7Cycle = r.cycle
		}
		if r.kernel == "childB" && r.tb == 0 {
			c2Cycle = r.cycle
		}
	}
	if c2Cycle >= p7Cycle {
		t.Errorf("TB-Pri: childB TB0 at %d should precede P7 at %d", c2Cycle, p7Cycle)
	}
}

// TestFig4d_SMXBind: every child TB executes on the SMX of its direct
// parent (Figure 4(d)).
func TestFig4d_SMXBind(t *testing.T) {
	trace, kept, _ := runFig4(t, core.NewSMXBind(4, 4))

	boundA := boundSMXOf(t, kept, "childA")
	boundB := boundSMXOf(t, kept, "childB")
	for _, r := range trace {
		switch r.kernel {
		case "childA":
			if r.smx != boundA {
				t.Errorf("childA TB%d on SMX%d, want bound SMX%d", r.tb, r.smx, boundA)
			}
		case "childB":
			if r.smx != boundB {
				t.Errorf("childB TB%d on SMX%d, want bound SMX%d", r.tb, r.smx, boundB)
			}
		}
	}
	// The four childB TBs serialise on one single-TB SMX: their dispatch
	// cycles must be strictly increasing with real gaps (each waits for
	// the previous to finish).
	var bCycles []uint64
	for _, r := range trace {
		if r.kernel == "childB" {
			bCycles = append(bCycles, r.cycle)
		}
	}
	for i := 1; i < len(bCycles); i++ {
		if bCycles[i] < bCycles[i-1]+50 {
			t.Errorf("childB TBs not serialised: dispatches at %v", bCycles)
		}
	}
}

// TestFig4e_AdaptiveBind: the adaptive scheme keeps the parent-SMX binding
// when possible but steals bound TBs onto idle SMXs, finishing faster and
// more balanced than strict SMX-Bind (Figure 4(e)).
func TestFig4e_AdaptiveBind(t *testing.T) {
	ab := core.NewAdaptiveBind(4, 4)
	traceA, keptA, resA := runFig4(t, ab)
	_, _, resS := runFig4(t, core.NewSMXBind(4, 4))

	if ab.Steals == 0 {
		t.Error("Adaptive-Bind never used stage 3 on the Figure 4 workload")
	}
	if resA.Cycles >= resS.Cycles {
		t.Errorf("Adaptive-Bind (%d cycles) should beat SMX-Bind (%d cycles)", resA.Cycles, resS.Cycles)
	}
	if resA.LoadImbalance >= resS.LoadImbalance {
		t.Errorf("Adaptive-Bind imbalance %.3f should be below SMX-Bind %.3f",
			resA.LoadImbalance, resS.LoadImbalance)
	}
	// Some childB TB still runs on the bound SMX (locality kept when the
	// SMX is available), and some runs elsewhere (stolen).
	boundB := boundSMXOf(t, keptA, "childB")
	var onBound, elsewhere int
	for _, r := range traceA {
		if r.kernel != "childB" {
			continue
		}
		if r.smx == boundB {
			onBound++
		} else {
			elsewhere++
		}
	}
	if onBound == 0 {
		t.Error("Adaptive-Bind kept no childB TB on its bound SMX")
	}
	if elsewhere == 0 {
		t.Error("Adaptive-Bind stole no childB TB despite idle SMXs")
	}
}

// TestFig4SchedulersAllComplete is a guard that the four schemes execute
// the identical workload to completion with identical total work.
func TestFig4SchedulersAllComplete(t *testing.T) {
	var insts []int64
	for _, sched := range []gpu.TBScheduler{
		core.NewRoundRobin(), core.NewTBPri(4), core.NewSMXBind(4, 4), core.NewAdaptiveBind(4, 4),
	} {
		_, _, res := runFig4(t, sched)
		insts = append(insts, res.ThreadInsts)
	}
	for i := 1; i < len(insts); i++ {
		if insts[i] != insts[0] {
			t.Errorf("scheduler %d executed %d thread-insts, baseline %d", i, insts[i], insts[0])
		}
	}
}
