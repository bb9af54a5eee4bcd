package smx

// The horizon a Tick leaves behind is what the engine's fast-forward clock
// trusts to skip cycles and elide ticks, and it is no longer recomputed on
// the cycles in between, so it must equal the full-pass definition on every
// one of them: the earliest readyAt of a warp that can issue on its own or
// of a pending block retirement, lowered to the MSHR stall wake while loads
// are stalled, and pinned to the next cycle while a short scan left stalled
// warps — however the issue scan computed it and whatever the SMX's cluster
// peer did since.

import (
	"fmt"
	"math/rand"
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// fullPassHorizon recomputes from scratch the earliest cycle >= next at
// which the SMX can act, by a pass over its warps and retiring blocks and a
// NextStallWake query at next.
func fullPassHorizon(s *SMX, next uint64) uint64 {
	if s.Idle() {
		return ^uint64(0)
	}
	fold := ^uint64(0)
	memStalled, launchStalled := false, false
	for _, w := range s.warps {
		switch {
		case len(w.pending) > 0:
			memStalled = true
		case w.launchStalled:
			launchStalled = true
		case !w.done && !w.atBarrier:
			fold = min(fold, w.readyAt)
		}
	}
	for _, b := range s.retiring {
		fold = min(fold, b.retireAt)
	}
	if (memStalled || launchStalled) && s.scanShort {
		return next
	}
	if memStalled {
		fold = min(fold, s.mem.NextStallWake(s.ID, next, s.stallGen))
	}
	return max(fold, next)
}

// checkHorizon compares the SMX's horizon at cycle next with the full pass.
func checkHorizon(t *testing.T, s *SMX, next uint64) {
	t.Helper()
	if h, want := s.NextEvent(next), fullPassHorizon(s, next); h != want {
		t.Fatalf("smx %d next %d: horizon %d, full pass gives %d", s.ID, next, h, want)
	}
}

// checkStalls audits the MSHR tables' watch counts against the stalled
// warps of every SMX, as the engine's invariant auditor does.
func checkStalls(smxs []*SMX) error {
	stalled := make([][]uint32, len(smxs))
	for i, s := range smxs {
		stalled[i] = s.StalledLines()
	}
	return smxs[0].mem.CheckMSHRs(stalled)
}

// randomTB builds a block of 1-6 warps, each with its own random stream of
// computes, multi-line loads and stores over a 48-line pool (so loads hit,
// merge and miss), barriers, and launches.
func randomTB(rng *rand.Rand, child *isa.Kernel) *isa.TB {
	tb := isa.NewTB(32 * (1 + rng.Intn(6))).Build()
	tb.Launches = []*isa.Kernel{child}
	// memOp returns a memory instruction of 1-max distinct lines, which
	// it appends to the block's arena.
	memOp := func(kind isa.OpKind, max int) isa.Inst {
		n := 1 + rng.Intn(max)
		in := isa.Inst{Kind: kind, NLines: uint8(n), Arg: uint32(len(tb.Lines))}
		for _, l := range rng.Perm(48)[:n] {
			tb.Lines = append(tb.Lines, uint32(l))
		}
		return in
	}
	for w := range tb.Warps {
		for i := rng.Intn(10); i >= 0; i-- {
			var in isa.Inst
			switch rng.Intn(7) {
			case 0, 1:
				in = isa.Inst{Kind: isa.OpCompute, Arg: uint32(1 + rng.Intn(40))}
			case 2, 3:
				in = memOp(isa.OpLoad, 6)
			case 4:
				in = memOp(isa.OpStore, 3)
			case 5:
				in = isa.Inst{Kind: isa.OpBarrier}
			case 6:
				in = isa.Inst{Kind: isa.OpLaunch}
			}
			in.ActiveLanes = 32
			tb.Warps[w] = append(tb.Warps[w], in)
		}
	}
	return tb
}

// TestNextReadyMatchesFullPass drives one SMX, or two sharing an L1 and
// MSHR table, with random blocks under every warp policy, ticking them as
// the engine does (TickFF), and holds the horizon to fullPassHorizon after
// every tick and on every later cycle, the elided ones included.
func TestNextReadyMatchesFullPass(t *testing.T) {
	child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(1).Build()).Build()
	for _, policy := range []Policy{GTO, LRR, TwoLevel} {
		for _, cluster := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/cluster=%t/seed=%d", policy, cluster, seed)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					cfg := config.SmallTest()
					cfg.L1MSHRs = 2
					nSMX := 1
					if cluster {
						cfg.SMXsPerCluster, nSMX = 2, 2
					}
					m := mem.NewSystem(&cfg)
					// A launch queue that closes and opens at random;
					// every opening counts as a release.
					q := &gateEvents{closed: true}
					var seq uint64
					smxs := make([]*SMX, nSMX)
					for i := range smxs {
						smxs[i] = New(i, &cfg, m, q, policy, &seq)
					}
					pending := 40 // blocks still to dispatch
					var now, releases, bulk, elided uint64
					idle := false
					for ; !idle && now < 1<<20; now++ {
						if rng.Intn(30) == 0 {
							if q.closed = !q.closed; !q.closed {
								q.frees++
							}
						}
						for _, s := range smxs {
							for pending > 0 && rng.Intn(4) == 0 {
								tb := randomTB(rng, child)
								if !s.CanFit(tb) {
									break
								}
								s.AddBlock(tb, nil, now)
								pending--
							}
						}
						idle = pending == 0
						for _, s := range smxs {
							var atBarrier []*warp
							for _, w := range s.warps {
								if w.atBarrier {
									atBarrier = append(atBarrier, w)
								}
							}
							// Ticks the horizon elides leave the SMX's
							// state, and so its horizon, as it was.
							if now < s.horizon && !s.Idle() {
								elided++
							}
							s.TickFF(now)
							if s.bulk {
								bulk++
							}
							checkHorizon(t, s, now+1)
							if err := s.CheckInvariants(); err != nil {
								t.Fatalf("cycle %d: %v", now, err)
							}
							for _, w := range atBarrier {
								if !w.atBarrier {
									releases++
								}
							}
							idle = idle && s.Idle()
						}
						// Every cycle up to the horizon, after the
						// cluster peer's tick too, finds it unchanged.
						for _, s := range smxs {
							checkHorizon(t, s, now+1)
						}
						if err := checkStalls(smxs); err != nil {
							t.Fatalf("cycle %d: %v", now, err)
						}
					}
					if !idle {
						t.Fatalf("work left at cycle %d: %d blocks undispatched", now, pending)
					}
					if releases == 0 {
						t.Error("no barrier released during a scan; released warps never entered the wake heap")
					}
					var stalls int64
					for _, s := range smxs {
						stalls += s.Stats().MemStallEvents
					}
					if stalls == 0 {
						t.Error("no MSHR stalls; the stall wake went unexercised")
					}
					if bulk == 0 {
						t.Error("no scan proved its stalled warps' retries in bulk")
					}
					if elided == 0 {
						t.Error("no tick was elided before the horizon")
					}
				})
			}
		}
	}

	// The youngest warp of a block finishes while its older warps, already
	// visited by this cycle's GTO scan, wait at a barrier: its retirement
	// releases them to issue on the next cycle, through the wake heap.
	t.Run("release-by-youngest-warp", func(t *testing.T) {
		s, _, cfg := newTestSMX(t, GTO)
		older := []isa.Inst{
			{Kind: isa.OpBarrier, ActiveLanes: 32},
			{Kind: isa.OpCompute, Arg: 1, ActiveLanes: 32},
		}
		tb := isa.NewTB(32 * (cfg.IssueWidth + 2)).Build()
		for w := range tb.Warps {
			tb.Warps[w] = older
		}
		youngest := len(tb.Warps) - 1
		tb.Warps[youngest] = []isa.Inst{{Kind: isa.OpCompute, Arg: 20, ActiveLanes: 32}}
		s.AddBlock(tb, nil, 0)
		// Cycle 0 fills the issue width with barrier arrivals; cycle 1
		// issues the last older warp's arrival, then the youngest warp's
		// final instruction, which releases the barrier.
		for now := uint64(0); now < 2; now++ {
			s.Tick(now)
			checkHorizon(t, s, now+1)
		}
		released := !s.warps[0].atBarrier && s.warps[0].pc == 1
		if !released || s.horizon != 2 || len(s.wake) != len(tb.Warps)-1 {
			t.Fatalf("barrier released %t, horizon %d, %d warps waking; want a release at cycle 1 waking the %d older warps at 2",
				released, s.horizon, len(s.wake), len(tb.Warps)-1)
		}
		for now := uint64(2); !s.Idle(); now++ {
			if now > 1000 {
				t.Fatal("block did not retire")
			}
			s.Tick(now)
			checkHorizon(t, s, now+1)
		}
	})
}
