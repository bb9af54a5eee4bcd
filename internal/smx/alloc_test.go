package smx

// Allocation pin for the SMX pipeline: with warm block/warp free pools, a
// full dispatch → execute → retire block lifecycle — including coalescing
// into the warp's inline line buffer, MSHR traffic, a barrier, and the
// retirement sweep — allocates nothing. The budget is an explicit 0 so any
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
// short-cut by mem.StillRejected or re-issued — neither may allocate.
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
