package mem

// The reset oracle: a System handed back by Release and drawn again by
// NewSystem must be indistinguishable from one NewSystem allocates, field
// for field, however dirty the run that released it left it — or the next
// run would read the last run's tags, LRU order, MSHR entries, stall
// bookkeeping, reuse attribution or DRAM queue. A System of another
// geometry must never be drawn.

import (
	"reflect"
	"testing"

	"laperm/internal/config"
)

// dirty drives s through every kind of state a run leaves behind:
// attribution on, tagged loads that evict L1 ways and merge under
// outstanding misses, MSHR-full rejections with their stalls watched (some
// dropped again), stores over twice the L2's capacity, DRAM queueing, and
// misses still outstanding at the end. It fails the test unless a load was rejected and hits were classified.
func dirty(t *testing.T, s *System, cfg *config.GPU) {
	t.Helper()
	s.SetAttribution(true)
	l1Lines, l2Lines := cfg.L1Bytes/config.LineSize, cfg.L2Bytes/config.LineSize
	rejected := 0
	var now uint64
	for smx := 0; smx < cfg.NumSMX; smx++ {
		acc := Accessor{Inst: int32(smx), Parent: int32(smx / 2)}
		// Each line twice in a row: the second load merges with the
		// first's miss. One load a cycle fills the MSHR table long
		// before the first fill returns.
		for l := 0; l < 8*l1Lines; l++ {
			now++
			line := uint32(smx*l1Lines + l/2)
			if _, ok := s.LoadAs(smx, uint64(line)*config.LineSize, now, acc); !ok {
				rejected++
				s.Stall(smx, line)
				if l%3 == 0 {
					s.Unstall(smx, line)
				}
			}
		}
	}
	for l := 0; l < 2*l2Lines; l++ {
		now++
		s.StoreAs(l%cfg.NumSMX, uint64(l)*config.LineSize, now, Accessor{Inst: int32(l % 5), Parent: -1})
	}
	// Long after every fill, a few lines read twice: the second read
	// hits the L1 and is classified.
	for late := now + 1<<20; late < now+3<<20; late += 1 << 20 {
		for smx := 0; smx < cfg.NumSMX; smx++ {
			for l := 0; l < 4; l++ {
				s.LoadAs(smx, uint64(smx*l1Lines+l)*config.LineSize, late, Accessor{Inst: int32(smx + 1), Parent: int32(smx)})
			}
		}
	}
	// Misses still outstanding when the run ends.
	now += 3 << 20
	for smx := 0; smx < cfg.NumSMX; smx++ {
		s.LoadAs(smx, uint64(cfg.NumSMX*8*l1Lines+smx)*config.LineSize, now, NoAccessor)
	}
	if rejected == 0 {
		t.Fatal("dirty: no load was rejected at a full MSHR table")
	}
	if s.L1Reuse().Total() == 0 || s.L2Reuse().Total() == 0 {
		t.Fatalf("dirty: reuse unclassified (L1 %v, L2 %v)", s.L1Reuse(), s.L2Reuse())
	}
}

// resetConfigs are the geometries the oracle dirties and resets: the
// paper's Table I K20c, and the small test machine with two SMXs sharing
// each L1 and MSHR table.
func resetConfigs() map[string]*config.GPU {
	k20c := config.KeplerK20c()
	small := config.SmallTest()
	small.SMXsPerCluster = 2
	return map[string]*config.GPU{"table1": &k20c, "small-cluster2": &small}
}

func TestResetMatchesFresh(t *testing.T) {
	for name, cfg := range resetConfigs() {
		t.Run(name, func(t *testing.T) {
			fresh := newSystem(cfg, geometryOf(cfg))
			s := NewSystem(cfg)
			dirty(t, s, cfg)
			if reflect.DeepEqual(s, fresh) {
				t.Fatal("dirty System equals a fresh one: the oracle would prove nothing")
			}
			s.reset(cfg)
			if !reflect.DeepEqual(s, fresh) {
				t.Fatal("reset System differs from a fresh one")
			}

			// Through the pool: whether or not NewSystem draws the
			// released System (the pool may drop it), what it returns
			// must equal a fresh System, here of a configuration that
			// differs only in timing.
			dirty(t, s, cfg)
			s.Release()
			slow := *cfg
			slow.L2HitLatency++
			slow.DRAMLatency *= 2
			got := NewSystem(&slow)
			if !reflect.DeepEqual(got, newSystem(&slow, geometryOf(&slow))) {
				t.Fatal("NewSystem after Release differs from a fresh System")
			}
			got.Release()
		})
	}
}

// TestResetGeometryMismatch: a released System is never drawn for a
// configuration whose geometry differs, in any one geometry value.
func TestResetGeometryMismatch(t *testing.T) {
	base := config.SmallTest()
	variants := map[string]func(*config.GPU){
		"num-smx":   func(g *config.GPU) { g.NumSMX = 8 },
		"cluster":   func(g *config.GPU) { g.SMXsPerCluster = 2 },
		"l1-sets":   func(g *config.GPU) { g.L1Bytes *= 2 },
		"l1-assoc":  func(g *config.GPU) { g.L1Assoc *= 2; g.L1Bytes *= 2 },
		"l1-mshrs":  func(g *config.GPU) { g.L1MSHRs++ },
		"l2-banks":  func(g *config.GPU) { g.L2Banks *= 2 },
		"l2-sets":   func(g *config.GPU) { g.L2Bytes *= 2 },
		"l2-assoc":  func(g *config.GPU) { g.L2Assoc *= 2; g.L2Bytes *= 2 },
		"table1":    func(g *config.GPU) { *g = config.KeplerK20c() },
		"l2-shrunk": func(g *config.GPU) { g.L2Bytes /= 2 },
	}
	for name, edit := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := base
			edit(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			if geometryOf(&cfg) == geometryOf(&base) {
				t.Fatal("variant keeps the base geometry")
			}
			old := NewSystem(&base)
			dirty(t, old, &base)
			old.Release()
			got := NewSystem(&cfg)
			if got == old {
				t.Fatal("NewSystem drew a released System of another geometry")
			}
			if !reflect.DeepEqual(got, newSystem(&cfg, geometryOf(&cfg))) {
				t.Fatal("NewSystem differs from a fresh System")
			}
		})
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	s := NewSystem(testCfg())
	s.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	s.Release()
}
