package mem

// Differential oracles for the MSHR table and the L1 load path. The models
// are the straightforward implementations the optimized code replaced: an
// unsorted MSHR table that scans every entry and proves rejections from a
// log of every add, and a load path that probes the L1 set and then
// accesses it again through a cache step with its own copy of the victim
// rule. The optimized code must give the same answers and leave the same
// state on every input.

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"laperm/internal/config"
)

// modelMSHR is the unsorted MSHR table: entries in insertion order, a
// rescan on every expiry, a linear lookup, and the rejection rule read off
// a log of every add, each with its bucket and whether a stalled load
// watched that bucket when it happened.
type modelMSHR struct {
	entries    []mshrEntry
	cap        int
	nextExpire uint64
	lastAdd    uint64
	gen        uint64
	adds       []modelAdd // adds[g-1] is add number g
	watch      map[uint64]uint32
}

type modelAdd struct {
	bucket  uint64
	watched bool
}

func newModelMSHR(cap int) *modelMSHR {
	return &modelMSHR{cap: cap, nextExpire: noExpiry, lastAdd: noExpiry, watch: map[uint64]uint32{}}
}

func (m *modelMSHR) lookup(lineID, now uint64) (uint64, bool) {
	m.prune(now)
	for _, e := range m.entries {
		if e.lineID == lineID {
			return e.complete, true
		}
	}
	return 0, false
}

func (m *modelMSHR) prune(now uint64) {
	if now < m.nextExpire {
		return
	}
	keep := m.entries[:0]
	next := uint64(noExpiry)
	for _, e := range m.entries {
		if e.complete > now {
			keep = append(keep, e)
			next = min(next, e.complete)
		}
	}
	m.entries, m.nextExpire = keep, next
}

func (m *modelMSHR) full(now uint64) bool {
	m.prune(now)
	return len(m.entries) >= m.cap
}

func (m *modelMSHR) fullAt(now uint64) bool {
	return len(m.entries) >= m.cap && m.nextExpire > now
}

func (m *modelMSHR) add(lineID, complete, now uint64) {
	m.entries = append(m.entries, mshrEntry{lineID: lineID, complete: complete})
	m.nextExpire = min(m.nextExpire, complete)
	m.lastAdd = now
	b := lineID % lineBuckets
	m.adds = append(m.adds, modelAdd{bucket: b, watched: m.watch[b] > 0})
	m.gen++
}

// rejected: the table is full and none of the adds after generation since
// fell in the line's bucket.
func (m *modelMSHR) rejected(lineID, since, now uint64) bool {
	if !m.fullAt(now) {
		return false
	}
	for _, a := range m.adds[since:] {
		if a.bucket == lineID%lineBuckets {
			return false
		}
	}
	return true
}

// allRejected: the table is full and none of the adds after generation
// since fell in a watched bucket.
func (m *modelMSHR) allRejected(since, now uint64) bool {
	if !m.fullAt(now) {
		return false
	}
	for _, a := range m.adds[since:] {
		if a.watched {
			return false
		}
	}
	return true
}

// stamps derives the table's per-bucket add stamps and hot generation from
// the log.
func (m *modelMSHR) stamps() (stamp [lineBuckets]uint64, hot uint64) {
	for i, a := range m.adds {
		stamp[a.bucket] = uint64(i + 1)
		if a.watched {
			hot = uint64(i + 1)
		}
	}
	return stamp, hot
}

func (m *modelMSHR) nextStallWake(next, minGen uint64) uint64 {
	if !m.fullAt(next) {
		return next
	}
	wake := m.nextExpire
	if minGen < m.gen {
		if a := m.lastAdd + 1; a >= next && a < wake {
			wake = a
		}
	}
	return wake
}

// FuzzMSHRTableMatchesModel drives the table of a real System (sorted,
// bucket-counted and -stamped, preallocated) and the model with one random
// op stream. Each byte pair is one op: a miss-path admission (lookup, then
// add when no merge and not full, with a completion latency that may
// reorder fills; a rejection is stalled and tracked), a bare lookup, full,
// fullAt, Rejected and AllRejected for a tracked rejection (or its
// unstalling), NextStallWake at a tracked generation, or a clock advance.
// Line IDs are drawn so that some share a lookup bucket. Every answer and
// the table's observable state — its stamps, watch counts and hot
// generation included — must match after every op.
func FuzzMSHRTableMatchesModel(f *testing.F) {
	f.Add(byte(3), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 4, 5, 6, 9, 5, 0, 6, 200, 0, 6})
	f.Add(byte(0), []byte{0, 0, 0, 0, 1, 0, 6, 255, 1, 0, 2, 0, 3, 7})
	f.Add(byte(31), []byte{0, 10, 0, 11, 0, 138, 0, 12, 6, 40, 0, 139, 4, 1, 5, 1, 6, 3, 1, 138})
	f.Fuzz(func(t *testing.T, capByte byte, ops []byte) {
		cfg := config.SmallTest()
		cfg.L1MSHRs = 1 + int(capByte%32)
		s := NewSystem(&cfg)
		tbl, model := s.port[0].mshr, newModelMSHR(cfg.L1MSHRs)
		var (
			now  uint64
			gens []uint64 // generations of rejected adds, for retries
			line []uint64 // and their lines
		)
		lineOf := func(arg byte) uint64 {
			// Bit 7 moves the line a multiple of lineBuckets away, into
			// the same lookup bucket as its low-bit twin.
			return uint64(arg&0x7f) + uint64(arg>>7)*lineBuckets*3
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, ops[i+1]
			switch op {
			case 0:
				id := lineOf(arg)
				c1, ok1 := tbl.lookup(id, now)
				c2, ok2 := model.lookup(id, now)
				if c1 != c2 || ok1 != ok2 {
					t.Fatalf("op %d cycle %d: admission lookup(%d) = (%d, %t), model (%d, %t)", i, now, id, c1, ok1, c2, ok2)
				}
				if ok1 {
					break
				}
				f1, f2 := tbl.full(now), model.full(now)
				if f1 != f2 {
					t.Fatalf("op %d cycle %d: full = %t, model %t", i, now, f1, f2)
				}
				if f1 {
					if len(gens) == 8 {
						s.Unstall(0, uint32(line[0]))
						model.watch[line[0]%lineBuckets]--
						gens, line = gens[1:], line[1:]
					}
					s.Stall(0, uint32(id))
					model.watch[id%lineBuckets]++
					gens, line = append(gens, tbl.gen), append(line, id)
					break
				}
				// Fills mostly land in order, sometimes much earlier or
				// later than their neighbours.
				complete := now + 1 + uint64(arg%16)*uint64(1+arg%5)*7
				tbl.add(id, complete, now)
				model.add(id, complete, now)
			case 1:
				id := lineOf(arg)
				c1, ok1 := tbl.lookup(id, now)
				c2, ok2 := model.lookup(id, now)
				if c1 != c2 || ok1 != ok2 {
					t.Fatalf("op %d cycle %d: lookup(%d) = (%d, %t), model (%d, %t)", i, now, id, c1, ok1, c2, ok2)
				}
			case 2:
				if f1, f2 := tbl.full(now), model.full(now); f1 != f2 {
					t.Fatalf("op %d cycle %d: full = %t, model %t", i, now, f1, f2)
				}
			case 3:
				at := now + uint64(arg%8)
				if f1, f2 := tbl.fullAt(at), model.fullAt(at); f1 != f2 {
					t.Fatalf("op %d cycle %d: fullAt(%d) = %t, model %t", i, now, at, f1, f2)
				}
			case 4:
				if len(gens) == 0 {
					break
				}
				j := int(arg&0x7f) % len(gens)
				if r1, r2 := s.Rejected(0, uint32(line[j]), gens[j], now), model.rejected(line[j], gens[j], now); r1 != r2 {
					t.Fatalf("op %d cycle %d: Rejected(line %d, gen %d) = %t, model %t", i, now, line[j], gens[j], r1, r2)
				}
				if r1, r2 := s.AllRejected(0, gens[j], now), model.allRejected(gens[j], now); r1 != r2 {
					t.Fatalf("op %d cycle %d: AllRejected(gen %d) = %t, model %t", i, now, gens[j], r1, r2)
				}
				if arg&0x80 != 0 { // the load is reissued and leaves the watch
					s.Unstall(0, uint32(line[j]))
					model.watch[line[j]%lineBuckets]--
					gens, line = slices.Delete(gens, j, j+1), slices.Delete(line, j, j+1)
				}
			case 5:
				minGen := tbl.gen
				if len(gens) > 0 {
					minGen = gens[int(arg)%len(gens)]
				}
				if w1, w2 := s.NextStallWake(0, now, minGen), model.nextStallWake(now, minGen); w1 != w2 {
					t.Fatalf("op %d cycle %d: NextStallWake(gen %d) = %d, model %d", i, now, minGen, w1, w2)
				}
			case 6:
				now += uint64(arg % 64)
			}
			if len(tbl.entries) != len(model.entries) || tbl.nextExpire != model.nextExpire ||
				tbl.lastAdd != model.lastAdd || tbl.gen != model.gen {
				t.Fatalf("op %d cycle %d: table (len %d, nextExpire %d, lastAdd %d, gen %d), model (%d, %d, %d, %d)",
					i, now, len(tbl.entries), tbl.nextExpire, tbl.lastAdd, tbl.gen,
					len(model.entries), model.nextExpire, model.lastAdd, model.gen)
			}
			if !slices.IsSortedFunc(tbl.entries, func(a, b mshrEntry) int { return cmp.Compare(a.complete, b.complete) }) {
				t.Fatalf("op %d: entries not sorted by completion: %v", i, tbl.entries)
			}
			var want [lineBuckets]uint16
			for _, e := range tbl.entries {
				want[e.lineID%lineBuckets]++
			}
			if want != tbl.count {
				t.Fatalf("op %d: bucket counts do not match the entries", i)
			}
			if stamp, hot := model.stamps(); stamp != tbl.stamp || hot != tbl.hot {
				t.Fatalf("op %d: add stamps or hot generation %d differ from the model's (hot %d)", i, tbl.hot, hot)
			}
			for b, n := range tbl.watch {
				if model.watch[uint64(b)] != n {
					t.Fatalf("op %d: bucket %d watches %d stalled loads, model %d", i, b, n, model.watch[uint64(b)])
				}
			}
			if cap(tbl.entries) != cfg.L1MSHRs {
				t.Fatalf("op %d: entries capacity %d, want the preallocated %d", i, cap(tbl.entries), cfg.L1MSHRs)
			}
		}
	})
}

// modelAccess is the two-pass cache step the single-probe load path
// replaced: victim tracking during the tag scan, then a first-invalid-way
// override on allocation. It works on the cache's flat per-slot arrays, a
// set being assoc consecutive slots, with its own validity test.
func modelAccess(c *Cache, lineID uint64, acc Accessor, allocate bool) bool {
	c.useTick++
	set := int(lineID%uint64(len(c.tags)/c.assoc)) * c.assoc
	valid := func(i int) bool { return c.tags[i] != 0 }
	victim := set
	for i := set; i < set+c.assoc; i++ {
		if valid(i) && c.tags[i]-1 == lineID {
			c.lastUse[i] = c.useTick
			if c.attrib && allocate {
				c.reuse.count(acc.classify(c.inst[i], c.parent[i]))
			}
			return true
		}
		if c.lastUse[i] < c.lastUse[victim] || !valid(i) && valid(victim) {
			victim = i
		}
	}
	if allocate {
		for i := set; i < set+c.assoc; i++ {
			if !valid(i) {
				victim = i
				break
			}
		}
		c.tags[victim], c.lastUse[victim] = lineID+1, c.useTick
		c.inst[victim], c.parent[victim] = acc.Inst, acc.Parent
	}
	return false
}

// modelLoad is LoadAs as a probe followed by a separate counted access.
func modelLoad(s *System, smx int, lineAddr, now uint64, acc Accessor) (uint64, bool) {
	lineID := lineAddr / config.LineSize
	l1, tbl := s.port[smx].l1, s.port[smx].mshr
	if c, merged := tbl.lookup(lineID, now); merged {
		l1.stats.Accesses++
		return c, true
	}
	count := func(hit bool) {
		l1.stats.Accesses++
		if hit {
			l1.stats.Hits++
		}
	}
	if l1.Probe(lineID) {
		count(modelAccess(l1, lineID, acc, true))
		return now + uint64(s.cfg.L1HitLatency), true
	}
	if tbl.full(now) {
		return 0, false
	}
	count(modelAccess(l1, lineID, acc, true))
	c := s.l2Access(lineID, now, acc)
	tbl.add(lineID, c, now)
	return c, true
}

// modelStore is StoreAs with the model's write-through touch.
func modelStore(s *System, smx int, lineAddr, now uint64, acc Accessor) uint64 {
	lineID := lineAddr / config.LineSize
	modelAccess(s.port[smx].l1, lineID, NoAccessor, false)
	s.storeAccesses++
	return s.l2Access(lineID, now, acc)
}

// TestLoadPathMatchesProbeThenAccess runs random load and store sequences
// from two SMXs, tagged by four related kernel instances, through LoadAs
// and through the probe-then-access model on twin systems. Every result
// and, after every op, every L1 line (tag, validity, LRU stamp, installer),
// the L1 and L2 Stats and the ReuseStats must be identical, with
// attribution on and off, on private and cluster-shared L1s.
func TestLoadPathMatchesProbeThenAccess(t *testing.T) {
	accs := []Accessor{NoAccessor, {Inst: 1, Parent: -1}, {Inst: 2, Parent: 1}, {Inst: 3, Parent: 1}}
	for _, attrib := range []bool{false, true} {
		for _, perCluster := range []int{1, 2} {
			rng := rand.New(rand.NewSource(int64(perCluster)))
			cfg := config.SmallTest()
			cfg.L1MSHRs = 4
			cfg.SMXsPerCluster = perCluster
			got, want := NewSystem(&cfg), NewSystem(&cfg)
			got.SetAttribution(attrib)
			want.SetAttribution(attrib)
			var now uint64
			var hits, rejects int
			for op := 0; op < 20000; op++ {
				smx := rng.Intn(2)
				addr := uint64(rng.Intn(96)) * config.LineSize
				acc := accs[rng.Intn(len(accs))]
				switch r := rng.Intn(10); {
				case r < 7:
					c1, ok1 := got.LoadAs(smx, addr, now, acc)
					c2, ok2 := modelLoad(want, smx, addr, now, acc)
					if c1 != c2 || ok1 != ok2 {
						t.Fatalf("attrib %t cluster %d op %d: LoadAs = (%d, %t), model (%d, %t)",
							attrib, perCluster, op, c1, ok1, c2, ok2)
					}
					if !ok1 {
						rejects++
					} else if c1 == now+uint64(cfg.L1HitLatency) {
						hits++
					}
				case r < 9:
					if c1, c2 := got.StoreAs(smx, addr, now, acc), modelStore(want, smx, addr, now, acc); c1 != c2 {
						t.Fatalf("attrib %t cluster %d op %d: StoreAs = %d, model %d", attrib, perCluster, op, c1, c2)
					}
				default:
					now += uint64(rng.Intn(120))
				}
				for i := range got.l1 {
					g, w := got.l1[i], want.l1[i]
					for slot := range g.tags {
						gl := [4]uint64{g.tags[slot], g.lastUse[slot], uint64(g.inst[slot]), uint64(g.parent[slot])}
						wl := [4]uint64{w.tags[slot], w.lastUse[slot], uint64(w.inst[slot]), uint64(w.parent[slot])}
						if gl != wl {
							t.Fatalf("attrib %t cluster %d op %d: L1 %d slot %d (tag+1, LRU stamp, installer) = %v, model %v",
								attrib, perCluster, op, i, slot, gl, wl)
						}
					}
					if g.Stats() != w.Stats() || g.Reuse() != w.Reuse() || g.useTick != w.useTick {
						t.Fatalf("attrib %t cluster %d op %d: L1 %d stats %v reuse %v tick %d, model %v %v %d",
							attrib, perCluster, op, i, g.Stats(), g.Reuse(), g.useTick, w.Stats(), w.Reuse(), w.useTick)
					}
				}
				if got.L2Total() != want.L2Total() || got.L2Reuse() != want.L2Reuse() ||
					got.DRAMTransactions() != want.DRAMTransactions() {
					t.Fatalf("attrib %t cluster %d op %d: L2 %v/%v dram %d, model %v/%v %d", attrib, perCluster, op,
						got.L2Total(), got.L2Reuse(), got.DRAMTransactions(), want.L2Total(), want.L2Reuse(), want.DRAMTransactions())
				}
			}
			if hits == 0 || rejects == 0 || got.L1Total().Misses() == 0 {
				t.Errorf("attrib %t cluster %d: %d hits, %d rejections, %d misses; want all three paths exercised",
					attrib, perCluster, hits, rejects, got.L1Total().Misses())
			}
			if attrib && got.L1Reuse().Total() == 0 {
				t.Errorf("cluster %d: attribution on but no classified L1 hits", perCluster)
			}
		}
	}
}
