package mem

// Oracles for StillRejected, the O(1) retry check of MSHR-stalled warps: a
// true answer must be exact — a real LoadAs on that cycle rejects too and
// changes no counter — whatever loads (hits, merges, misses), stores and
// clock jumps from the SMXs sharing the table came in between, including
// after the add ring has wrapped.

import (
	"testing"

	"laperm/internal/config"
)

// counters is everything a rejected load must leave untouched.
type counters struct {
	l1   [2]Stats
	l2   Stats
	dram int64
}

func snapshot(s *System) counters {
	return counters{l1: [2]Stats{s.L1Stats(0), s.L1Stats(1)}, l2: s.L2Total(), dram: s.DRAMTransactions()}
}

// rejection is a load the memory system turned away, with the MSHR add
// generation at the time.
type rejection struct {
	smx  int
	line uint64
	gen  uint64
}

// checkStillRejected asks StillRejected about r at cycle now and, on true,
// verifies with a real load that the answer was exact. It reports whether
// the check answered true.
func checkStillRejected(t testing.TB, s *System, r *rejection, now uint64) bool {
	t.Helper()
	if !s.StillRejected(r.smx, r.line*config.LineSize, &r.gen, now) {
		return false
	}
	if r.gen != s.MSHRGen(r.smx) {
		t.Fatalf("cycle %d: StillRejected left gen %d, table is at %d", now, r.gen, s.MSHRGen(r.smx))
	}
	before := snapshot(s)
	if c, ok := s.Load(r.smx, r.line*config.LineSize, now); ok {
		t.Fatalf("cycle %d: StillRejected(smx %d, line %d) true, but the load was accepted (complete %d)", now, r.smx, r.line, c)
	}
	if after := snapshot(s); after != before {
		t.Fatalf("cycle %d: rejected load changed counters: %+v -> %+v", now, before, after)
	}
	return true
}

func retryConfig(mshrs, perCluster int) *config.GPU {
	cfg := config.SmallTest()
	cfg.L1MSHRs = mshrs
	cfg.SMXsPerCluster = perCluster
	return &cfg
}

// FuzzMSHRRetryElision drives two SMXs with a random op stream. Each byte
// pair is one op: a load or store of one of 24 lines (few enough that
// loads hit and merge, and that the 32-line L1 evicts), or a short or long
// clock advance. After every op, every tracked rejection is re-checked.
func FuzzMSHRRetryElision(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{0, 1, 4, 2, 8, 3, 12, 4, 0, 1, 3, 9, 2, 0})
	f.Add(byte(1), byte(1), []byte{0, 1, 1, 2, 0, 3, 0x80, 4, 0x81, 5, 0x82, 6, 3, 3, 0x80, 1})
	f.Add(byte(3), byte(1), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0x81, 4, 0x81, 0, 2, 7, 0, 4, 3, 1})
	f.Fuzz(func(t *testing.T, mshrs, cluster byte, ops []byte) {
		s := NewSystem(retryConfig(1+int(mshrs%4), 1+int(cluster%2)))
		var (
			now     uint64
			tracked []rejection
		)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			smx := int(op>>7) & 1
			line := uint64(arg % 24)
			switch op % 4 {
			case 0, 1:
				if _, ok := s.Load(smx, line*config.LineSize, now); !ok {
					if len(tracked) == 8 {
						tracked = tracked[1:]
					}
					tracked = append(tracked, rejection{smx: smx, line: line, gen: s.MSHRGen(smx)})
				}
			case 2:
				s.Store(smx, line*config.LineSize, now)
			case 3:
				if arg&1 == 0 {
					now += uint64(arg>>1) % 8
				} else {
					now += uint64(arg) * 4
				}
			}
			for j := range tracked {
				checkStillRejected(t, s, &tracked[j], now)
			}
		}
	})
}

// TestStillRejectedImpliesRejected walks fixed scenarios through the same
// oracle and also pins the answers, so the check is shown to fire (and to
// fall back) where it should.
func TestStillRejectedImpliesRejected(t *testing.T) {
	const L = config.LineSize
	type step struct {
		smx  int
		line uint64
		at   uint64
	}
	cases := []struct {
		name       string
		mshrs      int
		perCluster int
		fill       []step // loads that must be accepted
		reject     step   // the load that must be rejected
		between    []step // loads after the rejection (accepted or not)
		checkAt    uint64
		want       bool
	}{
		{
			name: "full-table-no-adds", mshrs: 2, perCluster: 1,
			fill:   []step{{0, 1, 10}, {0, 2, 10}},
			reject: step{0, 3, 10}, checkAt: 11, want: true,
		},
		{
			name: "slot-frees-at-first-fill", mshrs: 2, perCluster: 1,
			fill:   []step{{0, 1, 10}, {0, 2, 10}},
			reject: step{0, 3, 10}, checkAt: 10_000, want: false,
		},
		{
			name: "other-line-merges-do-not-count", mshrs: 2, perCluster: 1,
			fill:    []step{{0, 1, 10}, {0, 2, 10}},
			reject:  step{0, 3, 10},
			between: []step{{0, 1, 11}, {0, 2, 12}},
			checkAt: 13, want: true,
		},
		{
			name: "cluster-peer-shares-the-table", mshrs: 2, perCluster: 2,
			fill:   []step{{1, 1, 10}, {1, 2, 10}},
			reject: step{0, 3, 10}, checkAt: 11, want: true,
		},
		{
			name: "private-tables-do-not-share", mshrs: 2, perCluster: 1,
			fill:   []step{{1, 1, 10}, {1, 2, 10}, {0, 4, 10}, {0, 5, 10}},
			reject: step{0, 3, 10}, checkAt: 11, want: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSystem(retryConfig(tc.mshrs, tc.perCluster))
			for _, f := range tc.fill {
				if _, ok := s.Load(f.smx, f.line*L, f.at); !ok {
					t.Fatalf("fill load %+v rejected", f)
				}
			}
			if _, ok := s.Load(tc.reject.smx, tc.reject.line*L, tc.reject.at); ok {
				t.Fatalf("load %+v accepted by a full table", tc.reject)
			}
			r := rejection{smx: tc.reject.smx, line: tc.reject.line, gen: s.MSHRGen(tc.reject.smx)}
			for _, b := range tc.between {
				s.Load(b.smx, b.line*L, b.at)
			}
			if got := checkStillRejected(t, s, &r, tc.checkAt); got != tc.want {
				t.Errorf("StillRejected = %t, want %t", got, tc.want)
			}
		})
	}

	// A peer's miss on the blocked line itself makes the retry a merge: the
	// check must answer false, and the real load must then succeed.
	t.Run("peer-adds-the-blocked-line", func(t *testing.T) {
		s := NewSystem(retryConfig(2, 2))
		s.Load(0, 1*L, 10)
		if _, ok := s.Load(0, 2*L, 10); !ok {
			t.Fatal("fill rejected")
		}
		if _, ok := s.Load(0, 3*L, 10); ok {
			t.Fatal("load accepted by a full table")
		}
		r := rejection{smx: 0, line: 3, gen: s.MSHRGen(0)}
		// Once a fill lands, SMX 1 misses on line 3 and refills the table.
		first, _ := s.Load(0, 1*L, 10)
		if _, ok := s.Load(1, 3*L, first); !ok {
			t.Fatal("peer miss rejected after a slot freed")
		}
		for line := uint64(4); !s.port[0].mshr.fullAt(first); line++ {
			s.Load(1, line*L, first)
		}
		if checkStillRejected(t, s, &r, first) {
			t.Fatal("StillRejected true after a peer added the blocked line")
		}
		if _, ok := s.Load(0, 3*L, first); !ok {
			t.Fatal("retry after the peer's add did not merge")
		}
	})

	// The ring remembers addRing adds: with exactly that many since the
	// rejection the check still answers, one more forces a real retry.
	for _, extra := range []int{0, 1} {
		name := "ring-holds-every-add"
		if extra > 0 {
			name = "ring-wrapped-falls-back"
		}
		t.Run(name, func(t *testing.T) {
			s := NewSystem(retryConfig(1, 1))
			now := uint64(10)
			c, _ := s.Load(0, 1000*L, now)
			if _, ok := s.Load(0, 1*L, now); ok {
				t.Fatal("load accepted by a full one-entry table")
			}
			r := rejection{smx: 0, line: 1, gen: s.MSHRGen(0)}
			// Cycle the single entry through addRing+extra other lines,
			// each added once the previous fill has landed.
			for i := 0; i < addRing+extra; i++ {
				now = c
				var ok bool
				if c, ok = s.Load(0, uint64(2000+i)*L, now); !ok {
					t.Fatalf("add %d rejected", i)
				}
			}
			got := checkStillRejected(t, s, &r, now)
			if want := extra == 0; got != want {
				t.Errorf("after %d adds: StillRejected = %t, want %t", addRing+extra, got, want)
			}
			if extra > 0 {
				if _, ok := s.Load(0, 1*L, now); ok {
					t.Error("fallback retry accepted by a full table")
				}
			}
		})
	}
}
