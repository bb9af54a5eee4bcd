package mem

// Oracles for the MSHR table's one rejection rule, the O(1) retry checks of
// MSHR-stalled loads, one by one (Rejected) and all of an SMX's at once
// (AllRejected): a true answer must be exact — a real LoadAs on that cycle
// rejects too and changes no counter — whatever loads (hits, merges,
// misses), retries, stores and clock jumps from the SMXs sharing the table
// came in between.

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

// rejection is a load the memory system turned away and its SMX keeps
// retrying, with a generation it has observed: the table's at its latest
// rejection.
type rejection struct {
	smx  int
	line uint64
	gen  uint64
}

// reject records a rejected load as a stalled warp does: the table watches
// its bucket, and the load observes the table's generation.
func reject(s *System, smx int, line, now uint64) rejection {
	s.Stall(smx, uint32(line))
	_, gen := s.MSHRState(smx, now)
	return rejection{smx: smx, line: line, gen: gen}
}

// verifyRejected retries r with a real load at cycle now, which a true proof
// claims fails: it must be rejected and change no counter. The load then
// observes the table's current generation.
func verifyRejected(t testing.TB, s *System, r *rejection, now uint64, proof string) {
	t.Helper()
	before := snapshot(s)
	if c, ok := s.Load(r.smx, r.line*config.LineSize, now); ok {
		t.Fatalf("cycle %d: %s(smx %d, line %d) true, but the load was accepted (complete %d)", now, proof, r.smx, r.line, c)
	}
	if after := snapshot(s); after != before {
		t.Fatalf("cycle %d: rejected load changed counters: %+v -> %+v", now, before, after)
	}
	_, r.gen = s.MSHRState(r.smx, now)
}

// checkRejected asks Rejected about r at cycle now and, on true, verifies
// with a real load that the answer was exact. It reports whether the check
// answered true.
func checkRejected(t testing.TB, s *System, r *rejection, now uint64) bool {
	t.Helper()
	if !s.Rejected(r.smx, uint32(r.line), r.gen, now) {
		return false
	}
	verifyRejected(t, s, r, now, "Rejected")
	return true
}

// checkAllRejected asks AllRejected about the given SMX's tracked
// rejections, at the oldest generation any of them observed, and on true
// verifies every one of them with a real load. It reports whether the check
// answered true.
func checkAllRejected(t testing.TB, s *System, tracked []rejection, smx int, now uint64) bool {
	t.Helper()
	since, any := ^uint64(0), false
	for _, r := range tracked {
		if r.smx == smx {
			since, any = min(since, r.gen), true
		}
	}
	if !any || !s.AllRejected(smx, since, now) {
		return false
	}
	for i := range tracked {
		if tracked[i].smx == smx {
			verifyRejected(t, s, &tracked[i], now, "AllRejected")
		}
	}
	return true
}

// retry reissues the tracked rejection i as a stalled warp does: it leaves
// the table's watch, reloads, and rejoins the watch only when rejected
// again. It returns the rejections still stalled.
func retry(s *System, tracked []rejection, i int, now uint64) []rejection {
	r := tracked[i]
	s.Unstall(r.smx, uint32(r.line))
	if _, ok := s.Load(r.smx, r.line*config.LineSize, now); ok {
		return append(tracked[:i], tracked[i+1:]...)
	}
	tracked[i] = reject(s, r.smx, r.line, now)
	return tracked
}

func retryConfig(mshrs, perCluster int) *config.GPU {
	cfg := config.SmallTest()
	cfg.L1MSHRs = mshrs
	cfg.SMXsPerCluster = perCluster
	return &cfg
}

// FuzzMSHRRetryElision drives two SMXs with a random op stream. Each byte
// pair is one op: a load or store of one of 24 lines (few enough that
// loads hit and merge, and that the 32-line L1 evicts), a real retry of a
// tracked rejection, or a short or long clock advance. After every op,
// each SMX's tracked rejections are re-checked in bulk (AllRejected) and
// one by one (Rejected).
func FuzzMSHRRetryElision(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{0, 1, 5, 2, 8, 3, 12, 4, 0, 1, 3, 9, 2, 0, 4, 0})
	f.Add(byte(1), byte(1), []byte{0, 1, 1, 2, 0, 3, 0x80, 4, 0x81, 5, 0x82, 6, 3, 3, 0x80, 1, 4, 1})
	f.Add(byte(3), byte(1), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0x81, 4, 0x81, 0, 2, 7, 0, 4, 3, 1, 0x84, 2})
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
			switch op % 5 {
			case 0, 1:
				if _, ok := s.Load(smx, line*config.LineSize, now); !ok {
					if len(tracked) == 8 {
						s.Unstall(tracked[0].smx, uint32(tracked[0].line))
						tracked = tracked[1:]
					}
					tracked = append(tracked, reject(s, smx, line, now))
				}
			case 2:
				s.Store(smx, line*config.LineSize, now)
			case 3:
				if arg&1 == 0 {
					now += uint64(arg>>1) % 8
				} else {
					now += uint64(arg) * 4
				}
			case 4:
				if len(tracked) > 0 {
					tracked = retry(s, tracked, int(arg)%len(tracked), now)
				}
			}
			for smx := 0; smx < 2; smx++ {
				checkAllRejected(t, s, tracked, smx, now)
			}
			for j := range tracked {
				checkRejected(t, s, &tracked[j], now)
			}
		}
	})
}

// TestStillRejectedImpliesRejected walks fixed scenarios through the same
// oracles and also pins the answers, so the per-load proof (Rejected) and the
// bulk proof (AllRejected) are shown to fire, and to fall back, where they
// should.
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
		// wantAll is AllRejected's answer for the rejecting SMX; it can
		// only be false where Rejected is.
		wantAll bool
	}{
		{
			name: "full-table-no-adds", mshrs: 2, perCluster: 1,
			fill:   []step{{0, 1, 10}, {0, 2, 10}},
			reject: step{0, 3, 10}, checkAt: 11, want: true, wantAll: true,
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
			checkAt: 13, want: true, wantAll: true,
		},
		{
			name: "cluster-peer-shares-the-table", mshrs: 2, perCluster: 2,
			fill:   []step{{1, 1, 10}, {1, 2, 10}},
			reject: step{0, 3, 10}, checkAt: 11, want: true, wantAll: true,
		},
		{
			name: "private-tables-do-not-share", mshrs: 2, perCluster: 1,
			fill:   []step{{1, 1, 10}, {1, 2, 10}, {0, 4, 10}, {0, 5, 10}},
			reject: step{0, 3, 10}, checkAt: 11, want: true, wantAll: true,
		},
		{
			// Once the fills land, adds of other buckets' lines refill
			// the table: both proofs still hold.
			name: "other-bucket-adds-keep-the-proof", mshrs: 2, perCluster: 1,
			fill:    []step{{0, 1, 10}, {0, 2, 10}},
			reject:  step{0, 3, 10},
			between: []step{{0, 4, 5000}, {0, 5, 5000}},
			checkAt: 5000, want: true, wantAll: true,
		},
		{
			// Line 3+lineBuckets shares line 3's bucket: its add, once
			// the fills land, cannot be told from an add of line 3, so
			// both proofs fall back to a real retry.
			name: "same-bucket-add-falls-back", mshrs: 2, perCluster: 1,
			fill:    []step{{0, 1, 10}, {0, 2, 10}},
			reject:  step{0, 3, 10},
			between: []step{{0, 3 + lineBuckets, 5000}, {0, 5, 5000}},
			checkAt: 5000, want: false,
		},
		{
			// A peer SMX's add of another line into the blocked line's
			// bucket of a shared table falls back too.
			name: "peer-same-bucket-add-falls-back", mshrs: 2, perCluster: 2,
			fill:    []step{{1, 1, 10}, {1, 2, 10}},
			reject:  step{0, 3, 10},
			between: []step{{1, 3 + 2*lineBuckets, 5000}, {1, 5, 5000}},
			checkAt: 5000, want: false,
		},
		{
			// An add into the bucket before the load is rejected is one
			// the load observed: neither stamp nor hot holds it against
			// the retry, watched or not when it happened.
			name: "unwatched-add-before-rejection", mshrs: 2, perCluster: 1,
			fill:   []step{{0, 1, 10}, {0, 3 + lineBuckets, 10}},
			reject: step{0, 3, 10}, checkAt: 11, want: true, wantAll: true,
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
			r := reject(s, tc.reject.smx, tc.reject.line, tc.reject.at)
			for _, b := range tc.between {
				s.Load(b.smx, b.line*L, b.at)
			}
			if got := checkAllRejected(t, s, []rejection{r}, r.smx, tc.checkAt); got != tc.wantAll {
				t.Errorf("AllRejected = %t, want %t", got, tc.wantAll)
			}
			if got := checkRejected(t, s, &r, tc.checkAt); got != tc.want {
				t.Errorf("Rejected = %t, want %t", got, tc.want)
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
		r := reject(s, 0, 3, 10)
		// Once a fill lands, SMX 1 misses on line 3 and refills the table.
		first, _ := s.Load(0, 1*L, 10)
		if _, ok := s.Load(1, 3*L, first); !ok {
			t.Fatal("peer miss rejected after a slot freed")
		}
		for line := uint64(4); !s.port[0].mshr.fullAt(first); line++ {
			s.Load(1, line*L, first)
		}
		if checkAllRejected(t, s, []rejection{r}, 0, first) {
			t.Fatal("AllRejected true after a peer added the blocked line")
		}
		if checkRejected(t, s, &r, first) {
			t.Fatal("Rejected true after a peer added the blocked line")
		}
		if _, ok := s.Load(0, 3*L, first); !ok {
			t.Fatal("retry after the peer's add did not merge")
		}
	})
}
