package smx

import (
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// recorder implements Events and records notifications. refuse, when
// positive, rejects that many launches first (simulating a full launch
// queue); retries counts reissues of stalled launches; frees is the
// launch-queue release count LaunchFrees reports.
type recorder struct {
	launches []*isa.Kernel
	launchBy []int
	done     []*Block
	doneAt   []uint64
	refuse   int
	retries  int
	frees    uint64
}

func (r *recorder) Launch(smxID int, b *Block, child *isa.Kernel, now uint64, retry bool) bool {
	if retry {
		r.retries++
	}
	if r.refuse > 0 {
		r.refuse--
		return false
	}
	r.launches = append(r.launches, child)
	r.launchBy = append(r.launchBy, smxID)
	return true
}

func (r *recorder) LaunchFrees() uint64 { return r.frees }

func (r *recorder) BlockDone(smxID int, b *Block, now uint64) {
	r.done = append(r.done, b)
	r.doneAt = append(r.doneAt, now)
}

func newTestSMX(t *testing.T, policy Policy) (*SMX, *recorder, *config.GPU) {
	t.Helper()
	cfg := config.SmallTest()
	rec := &recorder{}
	var seq uint64
	s := New(0, &cfg, mem.NewSystem(&cfg), rec, policy, &seq)
	return s, rec, &cfg
}

// run ticks the SMX until it idles or maxCycles elapse, returning the final
// cycle.
func run(t *testing.T, s *SMX, maxCycles uint64) uint64 {
	t.Helper()
	var now uint64
	for ; now < maxCycles; now++ {
		s.Tick(now)
		if s.Idle() {
			return now
		}
	}
	t.Fatalf("SMX did not idle within %d cycles", maxCycles)
	return now
}

func TestComputeOnlyBlockRetires(t *testing.T) {
	s, rec, _ := newTestSMX(t, GTO)
	tb := isa.NewTB(64).ComputeN(2, 5).Build()
	s.AddBlock(tb, "owner", 0)
	run(t, s, 1000)
	if len(rec.done) != 1 {
		t.Fatalf("BlockDone notifications = %d, want 1", len(rec.done))
	}
	if rec.done[0].Owner != "owner" {
		t.Error("owner not preserved")
	}
	st := s.Stats()
	if st.ThreadInsts != 64*5 {
		t.Errorf("ThreadInsts = %d, want %d", st.ThreadInsts, 64*5)
	}
	if st.WarpInsts != 2*5 {
		t.Errorf("WarpInsts = %d, want %d", st.WarpInsts, 2*5)
	}
	if st.BlocksCompleted != 1 {
		t.Errorf("BlocksCompleted = %d", st.BlocksCompleted)
	}
}

func TestResourceAccounting(t *testing.T) {
	s, _, cfg := newTestSMX(t, GTO)
	tb := isa.NewTB(cfg.ThreadsPerSMX/2).Resources(8, 0).Compute(100).Build()
	if !s.CanFit(tb) {
		t.Fatal("first block should fit")
	}
	s.AddBlock(tb, nil, 0)
	if !s.CanFit(tb) {
		t.Fatal("second block should fit (half threads each)")
	}
	s.AddBlock(tb, nil, 0)
	if s.CanFit(tb) {
		t.Fatal("third block must not fit: threads exhausted")
	}
	if s.ResidentBlocks() != 2 {
		t.Errorf("ResidentBlocks = %d", s.ResidentBlocks())
	}
}

func TestCanFitTBSlots(t *testing.T) {
	s, _, cfg := newTestSMX(t, GTO)
	tiny := isa.NewTB(32).Resources(1, 0).Compute(1).Build()
	for i := 0; i < cfg.TBsPerSMX; i++ {
		if !s.CanFit(tiny) {
			t.Fatalf("block %d should fit", i)
		}
		s.AddBlock(tiny, nil, 0)
	}
	if s.CanFit(tiny) {
		t.Fatal("TB slot limit not enforced")
	}
}

func TestCanFitSharedMemAndRegisters(t *testing.T) {
	s, _, cfg := newTestSMX(t, GTO)
	shm := isa.NewTB(32).Resources(1, cfg.SharedMemPerSMX).Compute(1).Build()
	s.AddBlock(shm, nil, 0)
	if s.CanFit(isa.NewTB(32).Resources(1, 1).Compute(1).Build()) {
		t.Error("shared memory limit not enforced")
	}

	s2, _, cfg2 := newTestSMX(t, GTO)
	regs := isa.NewTB(32).Resources(cfg2.RegistersPerSMX/32, 0).Compute(1).Build()
	s2.AddBlock(regs, nil, 0)
	if s2.CanFit(isa.NewTB(32).Resources(1, 0).Compute(1).Build()) {
		t.Error("register limit not enforced")
	}
}

func TestAddBlockPanicsWithoutResources(t *testing.T) {
	s, _, cfg := newTestSMX(t, GTO)
	tb := isa.NewTB(cfg.ThreadsPerSMX).Resources(1, 0).Compute(1).Build()
	s.AddBlock(tb, nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("AddBlock without resources did not panic")
		}
	}()
	s.AddBlock(tb, nil, 0)
}

func TestResourcesFreedOnRetire(t *testing.T) {
	s, _, cfg := newTestSMX(t, GTO)
	tb := isa.NewTB(cfg.ThreadsPerSMX).Resources(1, 0).Compute(1).Build()
	s.AddBlock(tb, nil, 0)
	run(t, s, 100)
	if !s.CanFit(tb) {
		t.Fatal("resources not freed after block retired")
	}
}

func TestMemoryLatencyBlocksWarp(t *testing.T) {
	s, _, cfg := newTestSMX(t, GTO)
	// Single warp: cold load then one compute. The compute cannot issue
	// before the DRAM latency has elapsed.
	tb := isa.NewTB(32).
		Load(func(tid int) uint64 { return uint64(tid) * 4 }).
		Compute(1).
		Build()
	s.AddBlock(tb, nil, 0)
	end := run(t, s, 10000)
	if end < uint64(cfg.DRAMLatency) {
		t.Errorf("block finished at %d, before DRAM latency %d", end, cfg.DRAMLatency)
	}
}

func TestLatencyHidingAcrossWarps(t *testing.T) {
	// Two warps each issue a cold load; the second should issue its load
	// while the first waits, so total time is much less than 2x DRAM.
	s, _, cfg := newTestSMX(t, GTO)
	tb := isa.NewTB(64).
		Load(func(tid int) uint64 { return uint64(tid) * 4 }).
		Compute(1).
		Build()
	s.AddBlock(tb, nil, 0)
	end := run(t, s, 10000)
	if end > uint64(2*cfg.DRAMLatency) {
		t.Errorf("no latency hiding: end=%d", end)
	}
}

func TestStoreDoesNotBlockWarp(t *testing.T) {
	s, _, cfg := newTestSMX(t, GTO)
	tb := isa.NewTB(32).
		Store(func(tid int) uint64 { return uint64(tid) * 4 }).
		Compute(1).
		Build()
	s.AddBlock(tb, nil, 0)
	end := run(t, s, 10000)
	if end >= uint64(cfg.L2HitLatency) {
		t.Errorf("store blocked the warp: end=%d", end)
	}
}

func TestBarrierSynchronisesWarps(t *testing.T) {
	s, _, _ := newTestSMX(t, GTO)
	// Warp 0 computes for 50 cycles before the barrier; warp 1 reaches it
	// immediately. After the barrier both run one more compute.
	tb := isa.NewTB(64).Build()
	tb.Warps[0] = []isa.Inst{
		{Kind: isa.OpCompute, Arg: 50, ActiveLanes: 32},
		{Kind: isa.OpBarrier, ActiveLanes: 32},
		{Kind: isa.OpCompute, Arg: 1, ActiveLanes: 32},
	}
	tb.Warps[1] = []isa.Inst{
		{Kind: isa.OpBarrier, ActiveLanes: 32},
		{Kind: isa.OpCompute, Arg: 1, ActiveLanes: 32},
	}
	s.AddBlock(tb, nil, 0)
	end := run(t, s, 1000)
	if end < 50 {
		t.Errorf("barrier released too early: end=%d", end)
	}
}

func TestBarrierReleasedByRetiringWarp(t *testing.T) {
	s, _, _ := newTestSMX(t, GTO)
	// Warp 1 retires without a barrier while warp 0 waits at one; the
	// barrier must still release (live-warp counting).
	tb := isa.NewTB(64).Build()
	tb.Warps[0] = []isa.Inst{
		{Kind: isa.OpCompute, Arg: 1, ActiveLanes: 32},
		{Kind: isa.OpBarrier, ActiveLanes: 32},
		{Kind: isa.OpCompute, Arg: 1, ActiveLanes: 32},
	}
	tb.Warps[1] = []isa.Inst{
		{Kind: isa.OpCompute, Arg: 40, ActiveLanes: 32},
	}
	s.AddBlock(tb, nil, 0)
	run(t, s, 1000) // must not hang
}

func TestLaunchEvent(t *testing.T) {
	s, rec, _ := newTestSMX(t, GTO)
	child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(1).Build()).Build()
	tb := isa.NewTB(32).Compute(1).Launch(5, child).Compute(1).Build()
	s.AddBlock(tb, nil, 0)
	run(t, s, 1000)
	if len(rec.launches) != 1 || rec.launches[0] != child {
		t.Fatalf("launches = %v", rec.launches)
	}
	if rec.launchBy[0] != 0 {
		t.Errorf("launch attributed to SMX %d", rec.launchBy[0])
	}
}

func TestEmptyBlockRetiresImmediately(t *testing.T) {
	s, rec, _ := newTestSMX(t, GTO)
	tb := isa.NewTB(32).Build() // no instructions
	s.AddBlock(tb, nil, 7)
	if len(rec.done) != 1 {
		t.Fatal("empty block did not retire at AddBlock")
	}
	if !s.Idle() {
		t.Error("SMX not idle after empty block")
	}
	if s.CanFit(isa.NewTB(s.cfg.ThreadsPerSMX).Resources(1, 0).Build()) == false {
		t.Error("resources not freed for empty block")
	}
}

func TestMSHRStallRetries(t *testing.T) {
	cfg := config.SmallTest()
	cfg.L1MSHRs = 1
	rec := &recorder{}
	var seq uint64
	s := New(0, &cfg, mem.NewSystem(&cfg), rec, GTO, &seq)
	// One warp issuing a load that coalesces to 4 distinct lines: with a
	// single MSHR the transactions trickle out but must all complete.
	tb := isa.NewTB(32).
		Load(func(tid int) uint64 { return uint64(tid) * config.LineSize }).
		Build()
	s.AddBlock(tb, nil, 0)
	var now uint64
	for ; now < 100000; now++ {
		s.Tick(now)
		if s.Idle() {
			break
		}
	}
	if !s.Idle() {
		t.Fatal("stalled load never completed")
	}
	if s.Stats().MemStallEvents == 0 {
		t.Error("expected MSHR stall events")
	}
}

func TestGTOPrefersGreedyWarp(t *testing.T) {
	s, _, _ := newTestSMX(t, GTO)
	// Two single-warp blocks with back-to-back unit computes. GTO should
	// drain one warp before touching the other when IssueWidth=1.
	s.cfg.IssueWidth = 1
	a := isa.NewTB(32).ComputeN(1, 4).Build()
	b := isa.NewTB(32).ComputeN(1, 4).Build()
	s.AddBlock(a, "a", 0)
	s.AddBlock(b, "b", 0)

	// Tick cycle by cycle and observe block completion order: with
	// greedy, block a (older) finishes all 4 instructions first.
	rec := s.events.(*recorder)
	var now uint64
	for ; now < 100 && len(rec.done) < 2; now++ {
		s.Tick(now)
	}
	if len(rec.done) != 2 {
		t.Fatal("blocks did not finish")
	}
	if rec.done[0].Owner != "a" {
		t.Errorf("GTO finished %v first, want a", rec.done[0].Owner)
	}
	// The first completion should be well before the second (serial
	// greedy draining), not interleaved evenly.
	if rec.doneAt[1]-rec.doneAt[0] < 3 {
		t.Errorf("completions at %v: expected greedy separation", rec.doneAt)
	}
}

func TestLRRInterleavesWarps(t *testing.T) {
	s, rec, _ := newTestSMX(t, LRR)
	s.cfg.IssueWidth = 1
	a := isa.NewTB(32).ComputeN(1, 4).Build()
	b := isa.NewTB(32).ComputeN(1, 4).Build()
	s.AddBlock(a, "a", 0)
	s.AddBlock(b, "b", 0)
	var now uint64
	for ; now < 100 && len(rec.done) < 2; now++ {
		s.Tick(now)
	}
	if len(rec.done) != 2 {
		t.Fatal("blocks did not finish")
	}
	// Round robin finishes them within one cycle of each other.
	if d := int64(rec.doneAt[1]) - int64(rec.doneAt[0]); d > 2 {
		t.Errorf("LRR completions too far apart: %v", rec.doneAt)
	}
}

func TestIssueWidthBoundsThroughput(t *testing.T) {
	// 4 single-warp blocks of 1 compute each, IssueWidth 2: needs >= 2
	// issue cycles.
	s, rec, _ := newTestSMX(t, GTO)
	s.cfg.IssueWidth = 2
	for i := 0; i < 4; i++ {
		s.AddBlock(isa.NewTB(32).Compute(1).Build(), i, 0)
	}
	var now uint64
	for ; now < 100 && len(rec.done) < 4; now++ {
		s.Tick(now)
	}
	if now < 2 {
		t.Errorf("4 warp-insts at width 2 completed in %d cycles", now)
	}
	if got := s.Stats().IssueCycles; got < 2 {
		t.Errorf("IssueCycles = %d, want >= 2", got)
	}
}

func TestPolicyString(t *testing.T) {
	if GTO.String() != "gto" || LRR.String() != "lrr" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still format")
	}
}

func TestSeqCounterShared(t *testing.T) {
	cfg := config.SmallTest()
	var seq uint64
	rec := &recorder{}
	m := mem.NewSystem(&cfg)
	s0 := New(0, &cfg, m, rec, GTO, &seq)
	s1 := New(1, &cfg, m, rec, GTO, &seq)
	b0 := s0.AddBlock(isa.NewTB(32).Compute(1).Build(), nil, 0)
	b1 := s1.AddBlock(isa.NewTB(32).Compute(1).Build(), nil, 0)
	if b0.Seq >= b1.Seq {
		t.Errorf("dispatch sequence not global: %d then %d", b0.Seq, b1.Seq)
	}
}

func TestTwoLevelPolicyCompletesWork(t *testing.T) {
	s, rec, _ := newTestSMX(t, TwoLevel)
	// Mixed compute/memory blocks exercising group switching.
	for i := 0; i < 4; i++ {
		tb := isa.NewTB(64).
			Load(func(tid int) uint64 { return uint64(i*8192 + tid*4) }).
			ComputeN(3, 4).
			Build()
		s.AddBlock(tb, i, 0)
	}
	var now uint64
	for ; now < 100000 && len(rec.done) < 4; now++ {
		s.Tick(now)
	}
	if len(rec.done) != 4 {
		t.Fatalf("two-level completed %d of 4 blocks", len(rec.done))
	}
	if s.Stats().ThreadInsts != 4*(64+4*64) {
		t.Errorf("ThreadInsts = %d", s.Stats().ThreadInsts)
	}
}

func TestTwoLevelStaysWithinActiveGroup(t *testing.T) {
	// With IssueWidth 2 and two single-warp blocks per group, the first
	// group's warps should both issue before any second-group warp.
	s, rec, _ := newTestSMX(t, TwoLevel)
	s.cfg.IssueWidth = 2
	// TwoLevelGroupSize is 8, so put 8 one-warp blocks in group 0... the
	// small config allows only 4 TBs; use 4 (all one group).
	for i := 0; i < 4; i++ {
		s.AddBlock(isa.NewTB(32).ComputeN(1, 2).Build(), i, 0)
	}
	var now uint64
	for ; now < 1000 && len(rec.done) < 4; now++ {
		s.Tick(now)
	}
	if len(rec.done) != 4 {
		t.Fatal("work incomplete")
	}
}

func TestPolicyStringTwoLevel(t *testing.T) {
	if TwoLevel.String() != "two-level" {
		t.Errorf("TwoLevel.String() = %q", TwoLevel.String())
	}
}

// TestBlockHoldsResourcesUntilLastInstructionCompletes is the regression
// test for block retirement: a block whose last instruction is a long
// compute must keep its SMX resources until the latency elapses, not free
// them at issue.
func TestBlockHoldsResourcesUntilLastInstructionCompletes(t *testing.T) {
	s, rec, cfg := newTestSMX(t, GTO)
	tb := isa.NewTB(cfg.ThreadsPerSMX).Resources(1, 0).Compute(400).Build()
	s.AddBlock(tb, nil, 0)
	// Tick well past issue but before completion: resources still held.
	for now := uint64(0); now < 100; now++ {
		s.Tick(now)
	}
	if len(rec.done) != 0 {
		t.Fatal("block retired before its 400-cycle compute completed")
	}
	if s.CanFit(isa.NewTB(32).Compute(1).Build()) {
		t.Fatal("resources freed while final instruction in flight")
	}
	for now := uint64(100); now < 1000 && len(rec.done) == 0; now++ {
		s.Tick(now)
	}
	if len(rec.done) != 1 {
		t.Fatal("block never retired")
	}
	if rec.doneAt[0] < 400 {
		t.Errorf("block retired at %d, before compute completion 400", rec.doneAt[0])
	}
}

// TestBlockEndingInLoadRetiresAfterData: same property for a trailing
// memory instruction.
func TestBlockEndingInLoadRetiresAfterData(t *testing.T) {
	s, rec, cfg := newTestSMX(t, GTO)
	tb := isa.NewTB(32).Load(func(tid int) uint64 { return uint64(tid) * 4 }).Build()
	s.AddBlock(tb, nil, 0)
	for now := uint64(0); now < 10000 && len(rec.done) == 0; now++ {
		s.Tick(now)
	}
	if len(rec.done) != 1 {
		t.Fatal("block never retired")
	}
	if rec.doneAt[0] < uint64(cfg.DRAMLatency) {
		t.Errorf("block retired at %d, before its cold load returned (~%d)",
			rec.doneAt[0], cfg.DRAMLatency)
	}
}

// TestLaunchBackpressureStallsWarp: a refused launch stalls the warp, which
// retries every cycle until accepted; the following instructions still
// execute and the stall cycles are counted.
func TestLaunchBackpressureStallsWarp(t *testing.T) {
	s, rec, _ := newTestSMX(t, GTO)
	rec.refuse = 5
	child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(1).Build()).Build()
	tb := isa.NewTB(32).Launch(0, child).Compute(3).Build()
	s.AddBlock(tb, nil, 0)
	run(t, s, 1000)
	if len(rec.launches) != 1 {
		t.Fatalf("launches = %d, want 1", len(rec.launches))
	}
	if rec.retries != 5 {
		t.Errorf("retries = %d, want 5 (one per refused cycle)", rec.retries)
	}
	if st := s.Stats(); st.LaunchStallEvents != 5 {
		t.Errorf("LaunchStallEvents = %d, want 5", st.LaunchStallEvents)
	}
	if len(rec.done) != 1 {
		t.Error("block never retired after stalled launch")
	}
}

// TestCheckInvariantsCleanDuringRun: the auditor passes at every cycle of a
// normal multi-block execution.
func TestCheckInvariantsCleanDuringRun(t *testing.T) {
	s, _, _ := newTestSMX(t, GTO)
	for i := 0; i < 3; i++ {
		tb := isa.NewTB(64).Compute(5).LoadSeq(uint64(i)*4096, 4).Compute(5).Build()
		s.AddBlock(tb, nil, 0)
	}
	var now uint64
	for ; now < 10000 && !s.Idle(); now++ {
		s.Tick(now)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	if !s.Idle() {
		t.Fatal("SMX did not idle")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("idle: %v", err)
	}
}

// TestCheckInvariantsDetectsCorruption: corrupting the resource accounting
// is reported.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	s, _, _ := newTestSMX(t, GTO)
	s.AddBlock(isa.NewTB(64).Compute(100).Build(), nil, 0)
	s.usedThreads += 32 // simulate an accounting bug
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("corrupted thread accounting not detected")
	}
}

// TestBarrierLastBlockRetiresOnce is the regression test for a block whose
// last live warps wait at a barrier that is their final instruction: the
// finishing warp's barrier release completes the block inside a nested
// advance, and the block must be queued for retirement — and its resources
// credited back, and BlockDone fired — exactly once.
func TestBarrierLastBlockRetiresOnce(t *testing.T) {
	s, rec, _ := newTestSMX(t, GTO)
	tb := isa.NewTB(64).Build()
	tb.Warps[0] = []isa.Inst{
		{Kind: isa.OpCompute, Arg: 1, ActiveLanes: 32},
		{Kind: isa.OpCompute, Arg: 1, ActiveLanes: 32},
	}
	tb.Warps[1] = []isa.Inst{{Kind: isa.OpBarrier, ActiveLanes: 32}}
	s.AddBlock(tb, nil, 0)
	var now uint64
	for ; now < 100 && !s.Idle(); now++ {
		s.Tick(now)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	if !s.Idle() {
		t.Fatal("block did not retire")
	}
	if len(rec.done) != 1 || s.Stats().BlocksCompleted != 1 {
		t.Fatalf("BlockDone fired %d times, BlocksCompleted %d; want 1 and 1", len(rec.done), s.Stats().BlocksCompleted)
	}
	if s.usedThreads != 0 || s.usedRegs != 0 || s.usedShmem != 0 {
		t.Errorf("resources after retirement: threads %d, regs %d, shmem %d; want all 0", s.usedThreads, s.usedRegs, s.usedShmem)
	}
}

// TestCheckInvariantsDetectsScanCorruption corrupts, one at a time, each
// piece of issue-scan state the audit recomputes from warp state — a ready
// bit, a stalled bit, wake-heap membership and order, a stalled warp's
// blocked line, the stall generation (CheckInvariants), and the MSHR
// table's per-bucket watch counts (mem.CheckMSHRs) — and expects each
// corruption reported.
func TestCheckInvariantsDetectsScanCorruption(t *testing.T) {
	// setup returns an SMX after a few ticks of four blocks: some warps
	// waiting out latencies, some MSHR-stalled on a one-entry table.
	setup := func(t *testing.T) *SMX {
		cfg := config.SmallTest()
		cfg.L1MSHRs = 1
		var seq uint64
		s := New(0, &cfg, mem.NewSystem(&cfg), &recorder{}, GTO, &seq)
		for b := 0; b < 3; b++ {
			s.AddBlock(isa.NewTB(64).
				Load(func(tid int) uint64 { return uint64(b*64+tid) * config.LineSize }).
				Compute(50).
				Build(), nil, 0)
		}
		s.AddBlock(isa.NewTB(64).ComputeN(50, 3).Build(), nil, 0)
		for now := uint64(0); now < 3; now++ {
			s.Tick(now)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("clean state: %v", err)
		}
		if err := checkStalls([]*SMX{s}); err != nil {
			t.Fatalf("clean state: %v", err)
		}
		if s.memStalledWarps < 2 || len(s.wake) < 2 {
			t.Fatalf("%d stalled warps, %d waking; the corruptions need at least 2 of each", s.memStalledWarps, len(s.wake))
		}
		return s
	}
	firstStalled := func(s *SMX) int {
		for p := range s.warps {
			if s.stalled.has(p) {
				return p
			}
		}
		return -1
	}
	cases := []struct {
		name    string
		corrupt func(s *SMX)
	}{
		{"ready bit of a waiting warp", func(s *SMX) { s.ready.set(s.wake[0].w.pos) }},
		{"stalled bit cleared", func(s *SMX) { s.stalled.unset(firstStalled(s)) }},
		{"stalled bit of a waiting warp", func(s *SMX) { s.stalled.set(s.wake[0].w.pos) }},
		{"bit past the last warp", func(s *SMX) { s.ready.set(len(s.warps)) }},
		{"heap entry dropped", func(s *SMX) { s.wake = s.wake[1:] }},
		{"heap entry duplicated", func(s *SMX) { s.wake.push(s.wake[0].at, s.wake[0].w) }},
		{"heap key differs from readyAt", func(s *SMX) { s.wake[len(s.wake)-1].at++ }},
		{"heap order", func(s *SMX) {
			s.wake[0].w.readyAt += 1 << 20
			s.wake[0].at = s.wake[0].w.readyAt
		}},
		{"blocked line", func(s *SMX) { s.stallLine[firstStalled(s)]++ }},
		{"bucket counts", func(s *SMX) { s.mem.Stall(s.ID, 7) }},
		{"shared stall generation ahead of the table", func(s *SMX) {
			_, gen := s.mem.MSHRState(s.ID, s.tickEnd)
			s.stallGen = gen + 1
		}},
		{"warp position", func(s *SMX) { s.warps[1].pos = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := setup(t)
			tc.corrupt(s)
			err := s.CheckInvariants()
			if err == nil {
				err = checkStalls([]*SMX{s})
			}
			if err == nil {
				t.Fatal("corruption not detected")
			}
			t.Log(err)
		})
	}
}
