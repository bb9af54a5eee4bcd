package mem

import (
	"testing"

	"laperm/internal/config"
)

// These tests pin the two properties the fast-forward clock leans on in the
// memory system: MSHR liveness is a pure function of the query cycle (so the
// lazily-pruned table is jump-safe — nothing observable depends on how often
// it was polled in between), and NextStallWake is exactly the dense-scan
// answer for the first cycle a stalled warp's retry could make progress.

// TestMSHRTableJumpSafe feeds one add schedule to two tables and queries the
// first at every cycle and the second only at a sparse set of jump targets.
// At every shared query cycle the answers must agree: the elided per-cycle
// polls (each of which prunes) must have no observable effect.
func TestMSHRTableJumpSafe(t *testing.T) {
	adds := []struct{ line, complete, at uint64 }{
		{1, 50, 0}, {2, 70, 1}, {3, 70, 2}, {4, 200, 3},
	}
	// Jump targets straddle every expiry boundary.
	sparse := map[uint64]bool{
		4: true, 49: true, 50: true, 69: true, 70: true,
		71: true, 150: true, 199: true, 200: true, 250: true,
	}
	newTable := func() *mshrTable {
		return &mshrTable{cap: 4, nextExpire: noExpiry, lastAdd: noExpiry}
	}
	type answer struct {
		complete [6]uint64
		merged   [6]bool
		full     bool
	}
	query := func(m *mshrTable, now uint64) answer {
		var a answer
		for line := uint64(1); line <= 5; line++ {
			a.complete[line], a.merged[line] = m.lookup(line, now)
		}
		a.full = m.full(now)
		return a
	}

	dense, jump := newTable(), newTable()
	denseAt := map[uint64]answer{}
	for now := uint64(0); now <= 250; now++ {
		for _, ad := range adds {
			if ad.at == now {
				dense.add(ad.line, ad.complete, now)
			}
		}
		a := query(dense, now) // poll every cycle
		if sparse[now] {
			denseAt[now] = a
		}
	}
	for now := uint64(0); now <= 250; now++ {
		for _, ad := range adds {
			if ad.at == now {
				jump.add(ad.line, ad.complete, now)
			}
		}
		if !sparse[now] {
			continue // the fast-forward clock skipped this cycle
		}
		if got, want := query(jump, now), denseAt[now]; got != want {
			t.Errorf("cycle %d: sparse query %+v, dense oracle %+v", now, got, want)
		}
	}
}

// TestNextStallWakeMatchesDenseScan fills an SMX's MSHR table through the
// real load path and cross-checks NextStallWake against the brute-force
// definition: the first cycle >= next at which the table has a free slot for
// the blocked line, lowered to lastAdd+1 (not yet observed by a retry) for
// the merge-enablement case.
func TestNextStallWakeMatchesDenseScan(t *testing.T) {
	cfg := config.SmallTest()
	cfg.L1MSHRs = 4
	s := NewSystem(&cfg)

	// Fill the table at cycle 10 with four distinct-line misses.
	fillCycle := uint64(10)
	var completes []uint64
	for i := uint64(0); i < 4; i++ {
		c, ok := s.Load(0, i*config.LineSize, fillCycle)
		if !ok {
			t.Fatalf("fill load %d rejected", i)
		}
		completes = append(completes, c)
	}
	if _, ok := s.Load(0, 4*config.LineSize, fillCycle); ok {
		t.Fatal("fifth miss accepted by a full 4-entry MSHR table")
	}

	m := s.port[0].mshr
	oracle := func(next uint64) uint64 {
		slotFree := next
		for {
			live := 0
			for _, e := range m.entries {
				if e.complete > slotFree {
					live++
				}
			}
			if live < m.cap {
				break
			}
			slotFree++
		}
		// The add at lastAdd becomes visible to a retry one cycle later,
		// enabling a merge even while the table stays full; a lastAdd+1
		// before next was already observed and never rearms.
		if m.lastAdd != noExpiry && m.lastAdd+1 >= next && m.lastAdd+1 < slotFree {
			return m.lastAdd + 1
		}
		return slotFree
	}

	minComplete := completes[0]
	for _, c := range completes {
		if c < minComplete {
			minComplete = c
		}
	}
	probes := []uint64{fillCycle, fillCycle + 1, fillCycle + 2,
		minComplete - 1, minComplete, minComplete + 1}
	for _, next := range probes {
		if got, want := s.NextStallWake(0, next, 0), oracle(next); got != want {
			t.Errorf("NextStallWake(0, %d) = %d, dense oracle %d", next, got, want)
		}
	}

	// The wake must be productive: a retry at the reported cycle succeeds,
	// while one the cycle before (past the merge window) still bounces.
	wake := s.NextStallWake(0, fillCycle+2, 0)
	if wake != minComplete {
		t.Fatalf("post-merge-window wake = %d, want first fill completion %d", wake, minComplete)
	}
	if _, ok := s.Load(0, 5*config.LineSize, wake-1); ok {
		t.Errorf("retry at wake-1 (%d) succeeded; wake is not tight", wake-1)
	}
	if _, ok := s.Load(0, 5*config.LineSize, wake); !ok {
		t.Errorf("retry at wake (%d) still rejected; wake is not productive", wake)
	}

	// Once fills land, a free slot means the wake is immediate whatever the
	// horizon asked for.
	far := completes[len(completes)-1] + 1000
	if got := s.NextStallWake(0, far, 0); got != far {
		t.Errorf("NextStallWake with free slots = %d, want next=%d", got, far)
	}
}

// TestNextStallWakeSkipsObservedAdds: when every stalled warp has observed
// the table's latest add (minGen equals its generation), that add cannot
// have made any blocked line mergeable, so the lastAdd+1 wake is dropped and
// the first fill completion is the wake; while some stalled warp last
// observed an older generation, lastAdd+1 still wakes it.
func TestNextStallWakeSkipsObservedAdds(t *testing.T) {
	cfg := config.SmallTest()
	cfg.L1MSHRs = 4
	s := NewSystem(&cfg)
	fillCycle := uint64(10)
	minComplete := uint64(noExpiry)
	for i := uint64(0); i < 4; i++ {
		c, ok := s.Load(0, i*config.LineSize, fillCycle)
		if !ok {
			t.Fatalf("fill load %d rejected", i)
		}
		minComplete = min(minComplete, c)
	}
	blocked := uint64(4 * config.LineSize)
	if _, ok := s.Load(0, blocked, fillCycle); ok {
		t.Fatal("fifth miss accepted by a full 4-entry MSHR table")
	}
	_, gen := s.MSHRState(0, fillCycle)
	next := fillCycle + 1
	if got := s.NextStallWake(0, next, gen); got != minComplete {
		t.Errorf("every add observed: NextStallWake = %d, want first fill completion %d", got, minComplete)
	}
	if got := s.NextStallWake(0, next, gen-1); got != next {
		t.Errorf("an add missed: NextStallWake = %d, want lastAdd+1 = %d", got, next)
	}
	// The dropped wake was spurious: a retry then is provably rejected.
	if !s.Rejected(0, uint32(blocked/config.LineSize), gen, next) {
		t.Error("retry at lastAdd+1 not provably rejected")
	}
	if _, ok := s.Load(0, blocked, next); ok {
		t.Error("retry at lastAdd+1 accepted")
	}
}
