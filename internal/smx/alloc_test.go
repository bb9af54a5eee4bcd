package smx

// Allocation pin for the SMX pipeline: with warm block/warp free pools, a
// full dispatch → execute → retire block lifecycle — including issuing
// memory instructions straight from the program's coalesced lines, MSHR
// traffic, a barrier, and the retirement sweep — allocates nothing. The budget is an explicit 0 so any
// regression (a fresh slice on the issue path, a lost freelist recycle)
// fails this test rather than quietly serializing the worker pool again.

import (
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// nopEvents accepts every launch and drops retirement notifications, so the
// measured window contains only SMX-side work.
type nopEvents struct{}

func (nopEvents) Launch(int, *Block, *isa.Kernel, uint64, bool) bool { return true }
func (nopEvents) BlockDone(int, *Block, uint64)                      {}
func (nopEvents) LaunchFrees() uint64                                { return 0 }

func TestBlockLifecycleZeroAlloc(t *testing.T) {
	cfg := config.SmallTest()
	var seq uint64
	s := New(0, &cfg, mem.NewSystem(&cfg), nopEvents{}, GTO, &seq)
	tb := isa.NewTB(64).
		Load(func(tid int) uint64 { return uint64(tid) * 4 }).
		ComputeN(3, 4).
		Barrier().
		Store(func(tid int) uint64 { return 0x1000_0000 + uint64(tid)*4 }).
		Build()
	var now uint64
	lifecycle := func() {
		s.AddBlock(tb, nil, now)
		for !s.Idle() {
			s.Tick(now)
			now++
		}
	}
	// The first lifecycle warms the free pools and the issue-list backing.
	lifecycle()
	if allocs := testing.AllocsPerRun(200, lifecycle); allocs != 0 {
		t.Errorf("dispatch/execute/retire lifecycle: %.2f allocs per block, want 0", allocs)
	}
}

// TestStalledRetryZeroAlloc pins the MSHR-stall path: with a one-entry MSHR
// table every warp's 32-line load stalls, and each stalled retry is either
// short-cut by mem.Rejected or mem.AllRejected, or re-issued — none may
// allocate.
func TestStalledRetryZeroAlloc(t *testing.T) {
	cfg := config.SmallTest()
	cfg.L1MSHRs = 1
	var seq uint64
	s := New(0, &cfg, mem.NewSystem(&cfg), nopEvents{}, GTO, &seq)
	tb := isa.NewTB(64).
		Load(func(tid int) uint64 { return uint64(tid) * config.LineSize }).
		Compute(2).
		Build()
	var now uint64
	lifecycle := func() {
		s.AddBlock(tb, nil, now)
		for !s.Idle() {
			s.Tick(now)
			now++
		}
	}
	lifecycle()
	if s.Stats().MemStallEvents == 0 {
		t.Fatal("no MSHR stalls: the stalled-retry path did not run")
	}
	if allocs := testing.AllocsPerRun(50, lifecycle); allocs != 0 {
		t.Errorf("stalled-retry lifecycle: %.2f allocs per block, want 0", allocs)
	}
}

// gateEvents refuses every launch while closed and counts launch-queue
// releases, without allocating.
type gateEvents struct {
	closed bool
	frees  uint64
}

func (g *gateEvents) Launch(int, *Block, *isa.Kernel, uint64, bool) bool { return !g.closed }
func (g *gateEvents) BlockDone(int, *Block, uint64)                      {}
func (g *gateEvents) LaunchFrees() uint64                                { return g.frees }

// TestLaunchElisionZeroAlloc pins TickFF's launch-stall path: a warp stalls
// on a closed launch queue, TickFF elides its retries while no release
// happens, and a release lets the launch through — none of it may allocate.
func TestLaunchElisionZeroAlloc(t *testing.T) {
	cfg := config.SmallTest()
	var seq uint64
	ev := &gateEvents{}
	s := New(0, &cfg, mem.NewSystem(&cfg), ev, GTO, &seq)
	child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(1).Build()).Build()
	tb := isa.NewTB(32).Launch(0, child).Compute(3).Build()
	var now, elided uint64
	lifecycle := func() {
		ev.closed = true
		s.AddBlock(tb, nil, now)
		for i := 0; !s.Idle(); i++ {
			if i == 16 {
				ev.closed = false
				ev.frees++
			}
			elided += s.TickFF(now)
			now++
			s.NextEvent(now)
		}
	}
	lifecycle()
	if elided == 0 {
		t.Fatal("no elided launch retries: the elision path did not run")
	}
	if allocs := testing.AllocsPerRun(100, lifecycle); allocs != 0 {
		t.Errorf("launch-elision lifecycle: %.2f allocs per block, want 0", allocs)
	}
}

// TestStalledScanZeroAlloc pins the steady-state issue scan of a stall-heavy
// SMX (see stalledSMX): ticks that pop and push wake-heap entries, retry
// stalled loads that claim freed MSHR slots, and prove the other stalled
// warps' retries in bulk allocate nothing.
func TestStalledScanZeroAlloc(t *testing.T) {
	s, now := stalledSMX(t)
	var bulk int
	insts, stalls := s.stats.WarpInsts, s.stats.MemStallEvents
	ticks := func() {
		for i := 0; i < 100; i++ {
			s.Tick(now)
			now++
			if s.bulk {
				bulk++
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, ticks); allocs != 0 {
		t.Errorf("stalled steady-state ticks: %.2f allocs per 100 ticks, want 0", allocs)
	}
	if bulk == 0 || s.stats.WarpInsts == insts || s.stats.MemStallEvents == stalls || s.memStalledWarps == 0 {
		t.Errorf("%d bulk-proved ticks, %d issued, %d stall events, %d warps still stalled; want all positive",
			bulk, s.stats.WarpInsts-insts, s.stats.MemStallEvents-stalls, s.memStalledWarps)
	}
}
