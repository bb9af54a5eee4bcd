package smx

// Pinned behaviour of MSHR-stalled warps: a stall-heavy mix of distinct-line
// loads (table-filling misses), shared-line loads (MSHR merges and L1 hits)
// and stores on a two-entry MSHR table, under every warp policy and on a
// two-SMX cluster sharing one table. The expected Stats and retirement
// cycles are exact: any change to how a stalled warp retries — when it
// wakes, when its retry succeeds, how its stall cycles are counted — moves
// them. Each case runs under dense per-cycle ticking and, except LRR (see
// denseOnly), under the event-horizon drive (NextEvent jumps, SkipIdle,
// TickFF) the engine uses; both must reproduce the same numbers.

import (
	"slices"
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// stallBlock is a four-warp block whose warps each load 32 private lines
// (one per lane), merge on 8 lines shared by every block, store, and reload
// their first private lines.
func stallBlock(block int) *isa.TB {
	private := uint64(block) * 128 * config.LineSize
	return isa.NewTB(128).
		Load(func(tid int) uint64 { return private + uint64(tid)*config.LineSize }).
		Compute(3).
		Load(func(tid int) uint64 { return 0x4000_0000 + uint64(tid%8)*config.LineSize }).
		Store(func(tid int) uint64 { return 0x5000_0000 + uint64(tid)*4 }).
		Load(func(tid int) uint64 { return private + uint64(tid%4)*config.LineSize }).
		Compute(2).
		Build()
}

// driveStall ticks the SMXs (in index order, as the engine does) until all
// idle, densely or by jumping between NextEvent horizons, and returns the
// final cycle.
func driveStall(t *testing.T, smxs []*SMX, ff bool) uint64 {
	t.Helper()
	const maxCycles = 1 << 20
	for now := uint64(0); now < maxCycles; {
		idle := true
		for _, x := range smxs {
			if ff {
				x.TickFF(now)
			} else {
				x.Tick(now)
			}
			idle = idle && x.Idle()
		}
		if idle {
			return now
		}
		next := now + 1
		if ff {
			h := ^uint64(0)
			for _, x := range smxs {
				if e := x.NextEvent(next); e < h {
					h = e
				}
			}
			if h > next {
				for _, x := range smxs {
					x.SkipIdle(h - next)
				}
				next = h
			}
		}
		now = next
	}
	t.Fatalf("SMXs did not idle within %d cycles", maxCycles)
	return 0
}

func TestMSHRStallStatsPinned(t *testing.T) {
	// want is one SMX's outcome: its Stats and the cycles its four blocks
	// retired at.
	type want struct {
		stats  Stats
		doneAt []uint64
	}
	stats := func(resident, issue uint64, stalls int64) Stats {
		return Stats{ThreadInsts: 3072, WarpInsts: 96, ResidentCycles: resident,
			IssueCycles: issue, BlocksCompleted: 4, MemStallEvents: stalls}
	}
	// Recorded before stalled retries were short-cut by the MSHR table's
	// rejection proofs (mem.Rejected, mem.AllRejected), which must not
	// move any of them.
	cases := []struct {
		name    string
		policy  Policy
		cluster bool // two SMXs sharing one L1 and MSHR table
		// denseOnly marks a case whose event-horizon drive is not yet
		// exact: LRR advances its cursor inside the issue scan, so a scan
		// that issued fewer than IssueWidth warps can still skip a stalled
		// warp's retry, and the skipped span over-counts MemStallEvents.
		denseOnly bool
		want      []want
	}{
		{name: "gto", policy: GTO, want: []want{
			{stats(105896, 96, 903033), []uint64{27605, 53928, 80248, 105895}},
		}},
		{name: "lrr", policy: LRR, denseOnly: true, want: []want{
			{stats(90230, 57, 1419565), []uint64{88979, 89511, 89849, 90229}},
		}},
		{name: "two-level", policy: TwoLevel, want: []want{
			{stats(105896, 96, 902745), []uint64{27605, 53928, 80248, 105895}},
		}},
		{name: "cluster-gto", policy: GTO, cluster: true, want: []want{
			{stats(106573, 96, 903710), []uint64{27605, 53928, 80248, 106572}},
			{stats(158545, 96, 1745508), []uint64{80248, 106572, 132895, 158544}},
		}},
	}
	for _, tc := range cases {
		for _, ff := range []bool{false, true} {
			if ff && tc.denseOnly {
				continue
			}
			name := tc.name + "/dense"
			if ff {
				name = tc.name + "/ff"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config.SmallTest()
				cfg.L1MSHRs = 2
				if tc.cluster {
					cfg.SMXsPerCluster = 2
				}
				m := mem.NewSystem(&cfg)
				var seq uint64
				recs := make([]*recorder, len(tc.want))
				smxs := make([]*SMX, len(tc.want))
				for i := range smxs {
					recs[i] = &recorder{}
					smxs[i] = New(i, &cfg, m, recs[i], tc.policy, &seq)
				}
				// Four blocks per SMX; block numbers overlap across the
				// cluster's SMXs so their private lines collide in the
				// shared table.
				for i, x := range smxs {
					for b := 0; b < 4; b++ {
						x.AddBlock(stallBlock(b+i*2), nil, 0)
					}
				}
				end := driveStall(t, smxs, ff)
				last := uint64(0)
				for i, x := range smxs {
					w := tc.want[i]
					if got := x.Stats(); got != w.stats {
						t.Errorf("smx %d: Stats = %+v, want %+v", i, got, w.stats)
					}
					if !slices.Equal(recs[i].doneAt, w.doneAt) {
						t.Errorf("smx %d: blocks retired at %v, want %v", i, recs[i].doneAt, w.doneAt)
					}
					last = max(last, w.doneAt[len(w.doneAt)-1])
				}
				if end != last {
					t.Errorf("idle at cycle %d, want the last retirement %d", end, last)
				}
			})
		}
	}
}

// stalledSMX builds a K20c SMX (a 32-entry MSHR table) holding 48 warps:
// five blocks of 8 warps whose every instruction is a 32-line load of lines
// no other warp touches, so they fill the table and then retry against it,
// and one block of 8 warps issuing short computes, which cycle through the
// wake heap. It returns the SMX and the next cycle once 40 warps are
// stalled on the full table; for the next 10^5 cycles the table stays full
// and the compute warps keep issuing.
func stalledSMX(tb testing.TB) (*SMX, uint64) {
	cfg := config.KeplerK20c()
	var seq uint64
	s := New(0, &cfg, mem.NewSystem(&cfg), nopEvents{}, GTO, &seq)
	for b := 0; b < 5; b++ {
		bld := isa.NewTB(256)
		for i := 0; i < 64; i++ {
			base := uint64((b*64+i)*256) * config.LineSize
			bld.Load(func(tid int) uint64 { return base + uint64(tid)*config.LineSize })
		}
		s.AddBlock(bld.Build(), nil, 0)
	}
	s.AddBlock(isa.NewTB(256).ComputeN(4, 1<<15).Build(), nil, 0)
	var now uint64
	for ; s.memStalledWarps < 40; now++ {
		if now > 1000 {
			tb.Fatalf("%d warps stalled after %d cycles, want 40", s.memStalledWarps, now)
		}
		s.Tick(now)
	}
	return s, now
}

// BenchmarkTickMSHRStalled measures one full SMX tick (ns/op) on an SMX
// whose 40 loading warps are stalled on a full MSHR table next to 8 ready
// or waiting compute warps: the per-tick cost of the issue scan when most
// resident warps cannot act. It reports the average stalled warps and
// issued instructions per tick.
func BenchmarkTickMSHRStalled(b *testing.B) {
	s, now := stalledSMX(b)
	var stalled int
	insts := s.stats.WarpInsts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100_000 == 99_999 {
			b.StopTimer()
			insts -= s.stats.WarpInsts
			s, now = stalledSMX(b)
			insts += s.stats.WarpInsts
			b.StartTimer()
		}
		stalled += s.memStalledWarps
		s.Tick(now)
		now++
	}
	b.ReportMetric(float64(stalled)/float64(b.N), "stalled/tick")
	b.ReportMetric(float64(s.stats.WarpInsts-insts)/float64(b.N), "issued/tick")
}
