package gpu_test

import (
	"errors"
	"strings"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

func smallCfg() *config.GPU {
	g := config.SmallTest()
	return &g
}

// simpleKernel builds nTBs compute+load thread blocks of 64 threads.
func simpleKernel(name string, nTBs int) *isa.Kernel {
	kb := isa.NewKernel(name)
	for i := 0; i < nTBs; i++ {
		base := uint64(i) * 4096
		kb.Add(isa.NewTB(64).
			Compute(4).
			LoadSeq(base, 4).
			Compute(4).
			Build())
	}
	return kb.Build()
}

// launchingKernel builds a parent whose TB i launches childTBs children.
func launchingKernel(nParents, childTBs int) *isa.Kernel {
	kb := isa.NewKernel("parent")
	for i := 0; i < nParents; i++ {
		base := uint64(i) * 8192
		child := isa.NewKernel("child")
		for c := 0; c < childTBs; c++ {
			child.Add(isa.NewTB(64).LoadSeq(base, 4).Compute(2).Build())
		}
		kb.Add(isa.NewTB(64).
			LoadSeq(base, 4).
			Launch(0, child.Build()).
			Compute(2).
			Build())
	}
	return kb.Build()
}

func run(t *testing.T, opts gpu.Options, kernels ...*isa.Kernel) *gpu.Result {
	t.Helper()
	sim := gpu.MustNew(opts)
	for _, k := range kernels {
		mustLaunch(t, sim, k)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// keepKernels returns an Options.TraceKernel hook that appends a copy of
// every kernel instance of the run to *kept, for checks after the run (the
// instances themselves are valid only until the run returns).
func keepKernels(kept *[]gpu.KernelInstance) func(*gpu.KernelInstance, uint64) {
	return func(ki *gpu.KernelInstance, _ uint64) { *kept = append(*kept, *ki) }
}

func mustLaunch(t *testing.T, sim *gpu.Simulator, k *isa.Kernel) {
	t.Helper()
	if err := sim.LaunchHost(k); err != nil {
		t.Fatalf("LaunchHost: %v", err)
	}
}

func TestSimpleKernelCompletes(t *testing.T) {
	res := run(t, gpu.Options{Config: smallCfg(), Scheduler: core.NewRoundRobin()},
		simpleKernel("k", 12))
	if res.BlockCount != 12 {
		t.Errorf("BlockCount = %d, want 12", res.BlockCount)
	}
	if res.KernelCount != 1 {
		t.Errorf("KernelCount = %d, want 1", res.KernelCount)
	}
	if res.IPC <= 0 {
		t.Errorf("IPC = %f", res.IPC)
	}
	wantInsts := simpleKernel("k", 12).TotalInstCount()
	if res.ThreadInsts != wantInsts {
		t.Errorf("ThreadInsts = %d, want %d", res.ThreadInsts, wantInsts)
	}
}

func TestDynamicLaunchesComplete(t *testing.T) {
	for _, model := range gpu.Models() {
		res := run(t, gpu.Options{Config: smallCfg(), Scheduler: core.NewRoundRobin(), Model: model},
			launchingKernel(6, 3))
		if res.KernelCount != 1+6 {
			t.Errorf("%v: KernelCount = %d, want 7", model, res.KernelCount)
		}
		if res.DynamicKernelCount != 6 {
			t.Errorf("%v: DynamicKernelCount = %d, want 6", model, res.DynamicKernelCount)
		}
		if want := 6 + 6*3; res.BlockCount != want {
			t.Errorf("%v: BlockCount = %d, want %d", model, res.BlockCount, want)
		}
	}
}

func TestCDPLaunchLatencyDelaysChildren(t *testing.T) {
	cfg := smallCfg()
	cfg.CDPLaunchLatency = 2000
	cfg.DTBLLaunchLatency = 10
	k := launchingKernel(4, 2)

	cdp := run(t, gpu.Options{Config: cfg, Scheduler: core.NewRoundRobin(), Model: gpu.CDP}, k)
	dtbl := run(t, gpu.Options{Config: cfg, Scheduler: core.NewRoundRobin(), Model: gpu.DTBL}, k)
	if cdp.AvgChildWait <= dtbl.AvgChildWait {
		t.Errorf("CDP child wait %.0f should exceed DTBL %.0f", cdp.AvgChildWait, dtbl.AvgChildWait)
	}
	if cdp.AvgChildWait < 2000 {
		t.Errorf("CDP child wait %.0f below launch latency", cdp.AvgChildWait)
	}
	if cdp.Cycles <= dtbl.Cycles {
		t.Errorf("CDP run (%d cycles) should be slower than DTBL (%d)", cdp.Cycles, dtbl.Cycles)
	}
}

func TestKDULimitSerialisesCDPKernels(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxConcurrentKernels = 1
	res := run(t, gpu.Options{Config: cfg, Scheduler: core.NewRoundRobin(), Model: gpu.CDP},
		launchingKernel(4, 2))
	// Everything must still finish, just serialised.
	if want := 4 + 4*2; res.BlockCount != want {
		t.Errorf("BlockCount = %d, want %d", res.BlockCount, want)
	}

	cfg2 := smallCfg()
	cfg2.MaxConcurrentKernels = 32
	wide := run(t, gpu.Options{Config: cfg2, Scheduler: core.NewRoundRobin(), Model: gpu.CDP},
		launchingKernel(4, 2))
	if res.Cycles <= wide.Cycles {
		t.Errorf("1-entry KDU (%d cycles) should be slower than 32-entry (%d)", res.Cycles, wide.Cycles)
	}
}

func TestDTBLBypassesKDULimit(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxConcurrentKernels = 1
	cfg.DTBLLaunchLatency = 5
	// Under DTBL the children coalesce onto the distributor and must not
	// deadlock or serialise behind the single KDU entry.
	res := run(t, gpu.Options{Config: cfg, Scheduler: core.NewRoundRobin(), Model: gpu.DTBL},
		launchingKernel(4, 2))
	if want := 4 + 4*2; res.BlockCount != want {
		t.Errorf("BlockCount = %d, want %d", res.BlockCount, want)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *gpu.Result {
		return run(t, gpu.Options{Config: smallCfg(), Scheduler: core.NewAdaptiveBind(smallCfg().NumSMX, 4), Model: gpu.DTBL},
			launchingKernel(8, 3))
	}
	a, b := mk(), mk()
	if a.Cycles != b.Cycles || a.ThreadInsts != b.ThreadInsts ||
		a.L1 != b.L1 || a.L2 != b.L2 || a.DRAMTransactions != b.DRAMTransactions {
		t.Errorf("runs differ:\n%v\n%v", a, b)
	}
}

func TestNestedLaunchPriorityClamp(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxPriorityLevels = 2
	// Three-deep nesting: leaf priority must clamp at 2.
	leaf := isa.NewKernel("leaf").Add(isa.NewTB(32).Compute(1).Build()).Build()
	mid := isa.NewKernel("mid").Add(isa.NewTB(32).Launch(0, leaf).Build()).Build()
	inner := isa.NewKernel("inner").Add(isa.NewTB(32).Launch(0, mid).Build()).Build()
	root := isa.NewKernel("root").Add(isa.NewTB(32).Launch(0, inner).Build()).Build()

	var kept []gpu.KernelInstance
	sim := gpu.MustNew(gpu.Options{Config: cfg, Scheduler: core.NewTBPri(cfg.MaxPriorityLevels), Model: gpu.DTBL,
		TraceKernel: keepKernels(&kept)})
	mustLaunch(t, sim, root)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var prios []int
	for _, ki := range kept {
		prios = append(prios, ki.Priority)
	}
	want := []int{0, 1, 2, 2}
	for i, p := range prios {
		if p != want[i] {
			t.Errorf("kernel %d priority = %d, want %d", i, p, want[i])
		}
	}
}

func TestTraceDispatchObservesEveryTB(t *testing.T) {
	var count int
	var cyclesMonotone = true
	var last uint64
	opts := gpu.Options{
		Config:    smallCfg(),
		Scheduler: core.NewRoundRobin(),
		Model:     gpu.DTBL,
		TraceDispatch: func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
			count++
			if cycle < last {
				cyclesMonotone = false
			}
			last = cycle
		},
	}
	res := run(t, opts, launchingKernel(4, 2))
	if count != res.BlockCount {
		t.Errorf("trace saw %d dispatches, result counted %d blocks", count, res.BlockCount)
	}
	if !cyclesMonotone {
		t.Error("dispatch cycles not monotone")
	}
}

func TestRunGuards(t *testing.T) {
	sim := gpu.MustNew(gpu.Options{Config: smallCfg(), Scheduler: core.NewRoundRobin()})
	if _, err := sim.Run(); err == nil {
		t.Error("Run with no kernels should error")
	}
	if _, err := sim.Run(); err == nil {
		t.Error("second Run should error")
	}
	if err := sim.LaunchHost(simpleKernel("late", 1)); err == nil {
		t.Error("LaunchHost after Run should error")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	sim := gpu.MustNew(gpu.Options{Config: smallCfg(), Scheduler: core.NewRoundRobin(), MaxCycles: 10})
	mustLaunch(t, sim, simpleKernel("k", 8))
	_, err := sim.Run()
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("expected cycle-guard error, got %v", err)
	}
	var cle *gpu.CycleLimitError
	if !errors.As(err, &cle) {
		t.Fatalf("error is %T, want *gpu.CycleLimitError", err)
	}
	if cle.MaxCycles != 10 {
		t.Errorf("CycleLimitError.MaxCycles = %d, want 10", cle.MaxCycles)
	}
}

func TestNewErrors(t *testing.T) {
	for name, opts := range map[string]gpu.Options{
		"nil config":    {Scheduler: core.NewRoundRobin()},
		"nil scheduler": {Config: smallCfg()},
		"bad config": {Config: &config.GPU{NumSMX: -1},
			Scheduler: core.NewRoundRobin()},
	} {
		if _, err := gpu.New(opts); err == nil {
			t.Errorf("%s: New returned nil error", name)
		}
	}
	sim := gpu.MustNew(gpu.Options{Config: smallCfg(), Scheduler: core.NewRoundRobin()})
	if err := sim.LaunchHost(&isa.Kernel{Name: "bad", TBs: []*isa.TB{{Threads: 0}}}); err == nil {
		t.Error("invalid kernel: LaunchHost returned nil error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with nil scheduler did not panic")
		}
	}()
	gpu.MustNew(gpu.Options{Config: smallCfg()})
}

func TestModelString(t *testing.T) {
	if gpu.CDP.String() != "cdp" || gpu.DTBL.String() != "dtbl" {
		t.Error("model names wrong")
	}
}

func TestResultStringMentionsScheduler(t *testing.T) {
	res := run(t, gpu.Options{Config: smallCfg(), Scheduler: core.NewRoundRobin()}, simpleKernel("k", 4))
	if s := res.String(); !strings.Contains(s, "rr/") {
		t.Errorf("Result.String() = %q", s)
	}
}

func TestAllSchedulersCompleteAllModels(t *testing.T) {
	cfg := smallCfg()
	for _, model := range gpu.Models() {
		for _, info := range core.Schedulers() {
			sched := info.New(cfg)
			res := run(t, gpu.Options{Config: cfg, Scheduler: sched, Model: model},
				launchingKernel(8, 3))
			if want := 8 + 8*3; res.BlockCount != want {
				t.Errorf("%s/%v: BlockCount = %d, want %d", sched.Name(), model, res.BlockCount, want)
			}
		}
	}
}

func TestKernelTimestamps(t *testing.T) {
	cfg := smallCfg()
	cfg.DTBLLaunchLatency = 50
	var kept []gpu.KernelInstance
	sim := gpu.MustNew(gpu.Options{Config: cfg, Scheduler: core.NewRoundRobin(), Model: gpu.DTBL,
		TraceKernel: keepKernels(&kept)})
	mustLaunch(t, sim, launchingKernel(2, 2))
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ki := range kept {
		if ki.Parent == nil {
			continue
		}
		if ki.ArriveCycle != ki.LaunchCycle+50 {
			t.Errorf("kernel %d: arrive %d, launch %d, want +50", ki.ID, ki.ArriveCycle, ki.LaunchCycle)
		}
		if ki.FirstDispatchCycle < ki.ArriveCycle {
			t.Errorf("kernel %d dispatched at %d before arrival %d", ki.ID, ki.FirstDispatchCycle, ki.ArriveCycle)
		}
		if ki.CompleteCycle < ki.FirstDispatchCycle {
			t.Errorf("kernel %d completed at %d before first dispatch %d", ki.ID, ki.CompleteCycle, ki.FirstDispatchCycle)
		}
	}
}

// TestKMUPriorityOrdering: with a single free KDU entry at a time, a
// later-arriving higher-priority CDP kernel must be dispatched from the KMU
// before earlier lower-priority ones (the prioritized kernel launch
// extension of Section IV-A).
func TestKMUPriorityOrdering(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxConcurrentKernels = 2 // host kernel + one child at a time
	cfg.CDPLaunchLatency = 10

	// A nested workload: the host kernel's first TB launches a child
	// (priority 1) whose TB launches a grandchild (priority 2). The host
	// kernel also launches several other priority-1 children afterwards.
	grandchild := isa.NewKernel("grandchild").Add(isa.NewTB(32).Compute(1).Build()).Build()
	firstChild := isa.NewKernel("first-child").Add(isa.NewTB(32).Compute(1).Launch(0, grandchild).Compute(200).Build()).Build()
	kb := isa.NewKernel("host")
	kb.Add(isa.NewTB(32).Launch(0, firstChild).Compute(400).Build())
	for i := 0; i < 3; i++ {
		sib := isa.NewKernel("sibling").Add(isa.NewTB(32).Compute(50).Build()).Build()
		kb.Add(isa.NewTB(32).Compute(2).Launch(0, sib).Compute(400).Build())
	}

	var order []string
	sim := gpu.MustNew(gpu.Options{
		Config:    cfg,
		Scheduler: core.NewTBPri(cfg.MaxPriorityLevels),
		Model:     gpu.CDP,
		TraceDispatch: func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
			order = append(order, ki.Prog.Name)
		},
	})
	mustLaunch(t, sim, kb.Build())
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	// The grandchild (priority 2) launches after the siblings (priority
	// 1) but must dispatch before at least the last of them: find
	// positions.
	pos := func(name string) int {
		for i, n := range order {
			if n == name {
				return i
			}
		}
		return -1
	}
	g := pos("grandchild")
	if g < 0 {
		t.Fatalf("grandchild never dispatched; order = %v", order)
	}
	lastSibling := -1
	for i, n := range order {
		if n == "sibling" {
			lastSibling = i
		}
	}
	if lastSibling >= 0 && g > lastSibling {
		t.Errorf("priority-2 grandchild dispatched after every priority-1 sibling: %v", order)
	}
}

func TestTimelineSampling(t *testing.T) {
	cfg := smallCfg()
	sim := gpu.MustNew(gpu.Options{
		Config:      cfg,
		Scheduler:   core.NewRoundRobin(),
		Model:       gpu.DTBL,
		SampleEvery: 100,
	})
	mustLaunch(t, sim, launchingKernel(8, 3))
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no samples recorded")
	}
	var last uint64
	var sawWork bool
	for _, smp := range res.Timeline {
		if smp.Cycle <= last {
			t.Errorf("samples not monotone: %d after %d", smp.Cycle, last)
		}
		last = smp.Cycle
		if smp.Cycle%100 != 0 {
			t.Errorf("sample at %d, want multiples of 100", smp.Cycle)
		}
		if smp.IPC < 0 || smp.L1 < 0 || smp.L1 > 1 || smp.L2 < 0 || smp.L2 > 1 {
			t.Errorf("sample out of range: %+v", smp)
		}
		if smp.IPC > 0 {
			sawWork = true
		}
	}
	if !sawWork {
		t.Error("all samples report zero IPC")
	}
	// Windowed IPC must average out near the global IPC.
	var sum float64
	for _, smp := range res.Timeline {
		sum += smp.IPC
	}
	avg := sum / float64(len(res.Timeline))
	if avg < res.IPC/3 || avg > res.IPC*3 {
		t.Errorf("windowed IPC average %.2f far from global %.2f", avg, res.IPC)
	}
}

func TestNoSamplingByDefault(t *testing.T) {
	res := run(t, gpu.Options{Config: smallCfg(), Scheduler: core.NewRoundRobin()}, simpleKernel("k", 4))
	if len(res.Timeline) != 0 {
		t.Errorf("unexpected samples: %d", len(res.Timeline))
	}
}

// TestClusteredMachineEndToEnd runs a launching workload on a machine whose
// L1 is shared by SMX pairs, with the cluster-aware binding scheduler, and
// checks that children stay inside their parent's cluster.
func TestClusteredMachineEndToEnd(t *testing.T) {
	cfg := smallCfg() // 4 SMXs
	cfg.SMXsPerCluster = 2
	parentSMX := make(map[*gpu.KernelInstance]int)
	var violations int
	sim := gpu.MustNew(gpu.Options{
		Config:    cfg,
		Scheduler: core.NewBindClusters(cfg.NumSMX, cfg.SMXsPerCluster, cfg.MaxPriorityLevels, core.BackupNone),
		Model:     gpu.DTBL,
		TraceDispatch: func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
			if ki.Parent == nil {
				parentSMX[ki] = smxID
				return
			}
			if cfg.ClusterOf(smxID) != cfg.ClusterOf(ki.BoundSMX) {
				violations++
			}
		},
	})
	mustLaunch(t, sim, launchingKernel(8, 2))
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 + 8*2; res.BlockCount != want {
		t.Fatalf("BlockCount = %d, want %d", res.BlockCount, want)
	}
	if violations > 0 {
		t.Errorf("%d child TBs escaped their parent's cluster", violations)
	}
}
