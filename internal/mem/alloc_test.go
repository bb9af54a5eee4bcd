package mem

// Allocation pin for the MSHR table: insert to capacity, reject at the full
// table, short-cut the stalled retry with StillRejected, query the
// stall-wake horizon, and lazily expire the whole table — the complete
// per-cycle MSHR protocol — with zero allocations. The entry slice is
// preallocated to the table's capacity in NewSystem and the add ring is an
// array inside the table, so this pin holds from the first access, not just
// after warm-up.

import (
	"testing"

	"laperm/internal/config"
)

func TestMSHRInsertExpireZeroAlloc(t *testing.T) {
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
				gen := s.MSHRGen(0)
				if s.StillRejected(0, (line-1)*config.LineSize, &gen, now+1) {
					elided++
				}
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
		t.Fatal("StillRejected never short-cut the retry of a rejected load")
	}
	if allocs := testing.AllocsPerRun(500, protocol); allocs != 0 {
		t.Errorf("MSHR insert/reject/expire protocol: %.2f allocs per round, want 0", allocs)
	}
	if rounds < 500 {
		t.Fatalf("protocol ran %d rounds, expected at least 500", rounds)
	}
}
