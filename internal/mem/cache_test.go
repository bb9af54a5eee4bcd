package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(4, 2)
	if c.Access(0) {
		t.Error("first access should miss")
	}
	if !c.Access(0) {
		t.Error("second access should hit")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 2 accesses 1 hit", st)
	}
	if st.Misses() != 1 {
		t.Errorf("misses = %d, want 1", st.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set, 2 ways: lines 0, 4, 8 map to the same set (numSets=4, so
	// lineIDs 0,4,8 -> set 0).
	c := NewCache(4, 2)
	c.Access(0)
	c.Access(4)
	c.Access(0) // 0 is now MRU, 4 is LRU
	c.Access(8) // evicts 4
	if !c.Probe(0) {
		t.Error("line 0 should survive (MRU)")
	}
	if c.Probe(4) {
		t.Error("line 4 should be evicted (LRU)")
	}
	if !c.Probe(8) {
		t.Error("line 8 should be resident")
	}
}

func TestCachePrefersInvalidWays(t *testing.T) {
	c := NewCache(1, 4)
	c.Access(0)
	c.Access(1)
	c.Access(2) // one way still invalid
	c.Access(3)
	for id := uint64(0); id < 4; id++ {
		if !c.Probe(id) {
			t.Errorf("line %d should be resident with 4 ways", id)
		}
	}
	if c.Occupancy() != 4 {
		t.Errorf("occupancy = %d, want 4", c.Occupancy())
	}
}

func TestProbeDoesNotAllocateOrCount(t *testing.T) {
	c := NewCache(4, 2)
	if c.Probe(7) {
		t.Error("probe of empty cache hit")
	}
	if c.Occupancy() != 0 {
		t.Error("probe allocated a line")
	}
	if c.Stats().Accesses != 0 {
		t.Error("probe counted as access")
	}
}

func TestTouchUpdatesLRUWithoutAllocating(t *testing.T) {
	c := NewCache(4, 2)
	c.Access(0)
	c.Access(4)
	// Touch 0 so it becomes MRU, then insert 8: 4 must be evicted.
	if !c.Touch(0) {
		t.Error("touch of resident line should report true")
	}
	c.Access(8)
	if c.Probe(4) {
		t.Error("line 4 should have been the LRU victim after Touch(0)")
	}
	// Touch of an absent line must not allocate.
	if c.Touch(100) {
		t.Error("touch of absent line reported hit")
	}
	if c.Probe(100) {
		t.Error("touch allocated a line")
	}
}

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	// {3, 2}: sets are indexed by mask, so the set count must be a power
	// of two.
	for _, args := range [][2]int{{0, 2}, {4, 0}, {-1, 2}, {3, 2}, {6, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d,%d) did not panic", args[0], args[1])
				}
			}()
			NewCache(args[0], args[1])
		}()
	}
}

func TestHitRateZeroWhenUntouched(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("hit rate of empty stats should be 0")
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 4}
	b := Stats{Accesses: 6, Hits: 3}
	a.Add(b)
	if a.Accesses != 16 || a.Hits != 7 {
		t.Errorf("Add = %+v", a)
	}
	if s := a.String(); s == "" {
		t.Error("String empty")
	}
}

// Property: occupancy never exceeds capacity, and the most recently accessed
// line is always resident.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(ids []uint16, setsPow, assoc uint8) bool {
		numSets := 1 << (setsPow%5 + 1) // 2..32 sets
		ways := int(assoc%4) + 1        // 1..4 ways
		c := NewCache(numSets, ways)
		for _, id := range ids {
			c.Access(uint64(id))
			if !c.Probe(uint64(id)) {
				return false // MRU line must be resident
			}
			if c.Occupancy() > numSets*ways {
				return false
			}
		}
		st := c.Stats()
		return st.Accesses == int64(len(ids)) && st.Hits <= st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// Property: a working set that fits entirely in the cache never misses after
// the first pass, regardless of access order within passes.
func TestFittingWorkingSetConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		numSets := 8
		ways := 4
		c := NewCache(numSets, ways)
		// Pick one line per (set, way) pair so the working set fits.
		var lines []uint64
		for s := 0; s < numSets; s++ {
			for w := 0; w < ways; w++ {
				lines = append(lines, uint64(s+numSets*w))
			}
		}
		for _, l := range lines {
			c.Access(l)
		}
		before := c.Stats()
		for pass := 0; pass < 3; pass++ {
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
			for _, l := range lines {
				if !c.Access(l) {
					t.Fatalf("trial %d: fitting working set missed on line %d", trial, l)
				}
			}
		}
		after := c.Stats()
		if after.Hits-before.Hits != int64(3*len(lines)) {
			t.Fatalf("trial %d: expected all warm passes to hit", trial)
		}
	}
}

// unmix64 inverts mix64: each xor-shift is undone by iterating it, each
// multiplication by the odd constant's inverse modulo 2^64 (Newton's
// iteration), and the additive constant by subtraction.
func unmix64(y uint64) uint64 {
	unshift := func(x uint64, s uint) uint64 {
		r := x
		for i := 0; i < 64; i++ {
			r = x ^ r>>s
		}
		return r
	}
	inverse := func(a uint64) uint64 {
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	x := unshift(y, 31) * inverse(0x94d049bb133111eb)
	x = unshift(x, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(x, 30) - 0x9e3779b97f4a7c15
}

// TestNoLineHasTheInvalidTag: a cache slot's tag is its line ID plus one,
// 0 marking an invalid way, so no stored ID may be 2^64-1. L1 line IDs are
// byte addresses divided by the line size, below 2^57. An L2 placement ID
// is mix64(line ID) divided by the bank count: below 2^63 with two or more
// banks, and with one bank equal to 2^64-1 only for mix64's preimage of
// 2^64-1 — which is not below 2^57, so no line maps there.
func TestNoLineHasTheInvalidTag(t *testing.T) {
	x := unmix64(^uint64(0))
	if mix64(x) != ^uint64(0) {
		t.Fatalf("unmix64 is not mix64's inverse: mix64(%#x) = %#x", x, mix64(x))
	}
	if x < 1<<57 {
		t.Fatalf("line ID %#x is placed at ID 2^64-1 in a one-bank L2, whose tag would read as invalid", x)
	}
	for _, id := range []uint64{0, 1, 1<<57 - 1} {
		if unmix64(mix64(id)) != id {
			t.Errorf("unmix64(mix64(%#x)) = %#x", id, unmix64(mix64(id)))
		}
	}
}
