package mem

// Allocation pins for the MSHR table: insert to capacity, reject at the full
// table, short-cut the stalled retry with Rejected and AllRejected, query
// the stall-wake horizon, and lazily expire the whole table — the complete
// per-cycle MSHR protocol — with zero allocations; likewise insertions that
// shift the completion-sorted entries and expiries that drop only a prefix.
// The entry slice is preallocated to the table's capacity in NewSystem, and
// the bucket stamps, watch counts and entry counts are arrays inside the
// table, so these pins hold from the first access, not just after warm-up.

import (
	"testing"

	"laperm/internal/config"
)

func TestMSHRInsertExpireZeroAlloc(t *testing.T) {
	t.Run("protocol", testMSHRProtocolZeroAlloc)
	cfg := config.SmallTest()

	// Completions in descending order: every add shifts every entry
	// already in the table.
	t.Run("sorted-insert", func(t *testing.T) {
		tbl := NewSystem(&cfg).port[0].mshr
		var now uint64
		round := func() {
			now += 1 << 20
			tbl.prune(now) // expire the previous round's entries
			for i := 0; i < tbl.cap; i++ {
				tbl.add(uint64(i), now+uint64(tbl.cap-i), now)
			}
		}
		round()
		if len(tbl.entries) != tbl.cap || tbl.entries[0].complete != now+1 || tbl.entries[0].lineID != uint64(tbl.cap-1) {
			t.Fatalf("after descending inserts: %d entries, first %+v; want %d, line %d completing at %d",
				len(tbl.entries), tbl.entries[0], tbl.cap, tbl.cap-1, now+1)
		}
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("sorted insertion: %.2f allocs per round, want 0", allocs)
		}
	})

	// Completions one cycle apart, expired one at a time: each lookup
	// drops a one-entry prefix and shifts the rest down.
	t.Run("prefix-prune", func(t *testing.T) {
		tbl := NewSystem(&cfg).port[0].mshr
		var now uint64
		round := func() {
			now += 1 << 20
			for i := 0; i < tbl.cap; i++ {
				tbl.add(uint64(i), now+1+uint64(i), now)
			}
			for i := 1; i <= tbl.cap; i++ {
				if _, ok := tbl.lookup(uint64(tbl.cap-1), now+uint64(i)); ok != (i < tbl.cap) {
					t.Fatalf("cycle +%d: last line outstanding %t", i, ok)
				}
				if len(tbl.entries) != tbl.cap-i {
					t.Fatalf("cycle +%d: %d entries left, want %d", i, len(tbl.entries), tbl.cap-i)
				}
			}
		}
		round()
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("prefix prune: %.2f allocs per round, want 0", allocs)
		}
	})
}

func testMSHRProtocolZeroAlloc(t *testing.T) {
	cfg := config.SmallTest()
	s := NewSystem(&cfg)
	var (
		now      uint64
		line     uint64
		rejected bool
		elided   int
		rounds   int
	)
	protocol := func() {
		rounds++
		filled := 0
		for {
			// Strictly increasing line addresses never revisit the L1, so
			// every access is a miss that wants an MSHR entry.
			_, ok := s.Load(0, line*config.LineSize, now)
			line++
			if !ok {
				rejected = true
				// The stalled warp's next-cycle retry provably fails.
				s.Stall(0, uint32(line-1))
				_, gen := s.MSHRState(0, now)
				if s.Rejected(0, uint32(line-1), gen, now+1) && s.AllRejected(0, gen, now+1) {
					elided++
				}
				s.Unstall(0, uint32(line-1))
				break
			}
			if filled++; filled > cfg.L1MSHRs {
				break
			}
		}
		s.NextStallWake(0, now+1, 0)
		// Jump past every fill completion: the next round's first lookup
		// prunes the entire table (lazy expiry).
		now += 1 << 20
	}
	protocol() // verify the shape once before measuring
	if !rejected {
		t.Fatalf("table never filled: %d inserts accepted without rejection (cap %d)", cfg.L1MSHRs, cfg.L1MSHRs)
	}
	if elided == 0 {
		t.Fatal("Rejected and AllRejected never short-cut the retry of a rejected load")
	}
	if allocs := testing.AllocsPerRun(500, protocol); allocs != 0 {
		t.Errorf("MSHR insert/reject/expire protocol: %.2f allocs per round, want 0", allocs)
	}
	if rounds < 500 {
		t.Fatalf("protocol ran %d rounds, expected at least 500", rounds)
	}
}
