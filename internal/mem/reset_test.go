package mem

// The reset oracle: a System reset for a new run must be indistinguishable
// from one NewSystem allocates, field for field, however dirty the run that
// used it left it — or the next run would read the last run's tags, LRU
// order, MSHR entries, stall bookkeeping, reuse attribution or DRAM queue.
// A System is never reset to another geometry.

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

// TestResetMatchesFresh resets a dirty System to another configuration of
// its geometry and back, each time requiring it to equal a new System of the
// configuration it was reset to. The configurations differ in timing, in
// the SMX count and in the cluster size, so the L1s and MSHR tables are
// repartitioned, and ones a larger machine left behind are reused.
func TestResetMatchesFresh(t *testing.T) {
	k20c, small := config.KeplerK20c(), config.SmallTest()
	slow := func(g config.GPU) config.GPU {
		g.L2HitLatency++
		g.DRAMLatency *= 2
		return g
	}
	pairs12, small2, small5, small6, small8 := k20c, small, small, small, small
	pairs12.NumSMX, pairs12.SMXsPerCluster = 12, 2
	small2.SMXsPerCluster = 2
	small5.NumSMX, small6.NumSMX, small8.NumSMX = 5, 6, 8
	cases := []struct {
		name     string
		from, to config.GPU
	}{
		{"table1", k20c, slow(k20c)},
		{"small-cluster2", small2, slow(small2)},
		{"table1-pairs12", k20c, pairs12},
		{"num-smx", small, small8},
		{"cluster", small, small2},
		// Five L1 slots round up to a capacity of six: growing into it.
		{"grow-within-capacity", small5, small6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSystem(&tc.from)
			for _, cfg := range []*config.GPU{&tc.to, &tc.from} {
				dirty(t, s, s.cfg)
				if reflect.DeepEqual(s, NewSystem(s.cfg)) {
					t.Fatal("dirty System equals a fresh one: the oracle would prove nothing")
				}
				s.Reset(cfg)
				if !reflect.DeepEqual(s, NewSystem(cfg)) {
					t.Fatalf("System reset to %d SMXs in clusters of %d differs from a fresh one",
						cfg.NumSMX, cfg.SMXsPerCluster)
				}
			}
		})
	}
}

// TestResetGeometryMismatch: Reset refuses a configuration whose geometry
// differs in any one value, instead of running it on caches and MSHR tables
// of another shape.
func TestResetGeometryMismatch(t *testing.T) {
	base := config.SmallTest()
	variants := map[string]func(*config.GPU){
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
			if GeometryOf(&cfg) == GeometryOf(&base) {
				t.Fatal("variant keeps the base geometry")
			}
			s := NewSystem(&base)
			dirty(t, s, &base)
			defer func() {
				if recover() == nil {
					t.Error("Reset accepted a configuration of another geometry")
				}
			}()
			s.Reset(&cfg)
		})
	}
}
