// Package mem models the GPU memory hierarchy of Figure 1: a private
// set-associative L1 per SMX, a banked L2 shared across SMXs, and an
// off-chip DRAM with bounded bandwidth. Timing is expressed as the core
// cycle at which an access completes; contention is modelled with per-bank
// and DRAM service queues, and L1 MSHRs bound outstanding misses.
//
// The hierarchy optionally attributes cache reuse: with attribution enabled
// (SetAttribution), every line remembers the kernel instance that installed
// it, and every hit is classified by the relationship between the accessor
// and the installer — the same kernel (self), a direct parent or child
// (parent-child), two children of the same parent (sibling), or unrelated
// kernels (cross). This is the repo-native version of the paper's Figure 3
// locality analysis: LaPerm's claim is precisely that its schedulers raise
// the parent-child share of L1 hits. Attribution is off by default and the
// tagged access paths reduce to the untagged ones, so timing and hit/miss
// behaviour are identical either way.
package mem

import "fmt"

// ReuseClass classifies a cache hit by the relationship between the kernel
// instance performing the access and the one that installed the line.
type ReuseClass uint8

const (
	// ReuseSelf: the accessing instance installed the line itself.
	ReuseSelf ReuseClass = iota
	// ReuseParentChild: the line was installed by the accessor's direct
	// parent, or the accessor is the installer's direct parent.
	ReuseParentChild
	// ReuseSibling: installer and accessor are distinct children of the
	// same parent instance.
	ReuseSibling
	// ReuseCross: any other relationship, including lines installed by
	// untagged accesses.
	ReuseCross
)

// String returns the class name as used in reports and CSV headers.
func (c ReuseClass) String() string {
	switch c {
	case ReuseSelf:
		return "self"
	case ReuseParentChild:
		return "parent-child"
	case ReuseSibling:
		return "sibling"
	case ReuseCross:
		return "cross"
	}
	return fmt.Sprintf("ReuseClass(%d)", int(c))
}

// Accessor identifies the kernel instance behind a memory access for reuse
// attribution: its instance ID and its direct parent's (-1 for host kernels
// and for accesses outside any instance).
type Accessor struct {
	Inst   int32
	Parent int32
}

// NoAccessor is the identity of untagged accesses; hits on lines it installs
// classify as ReuseCross.
var NoAccessor = Accessor{Inst: -1, Parent: -1}

// classify relates a line installed by (inst, parent) to accessor a.
func (a Accessor) classify(inst, parent int32) ReuseClass {
	switch {
	case inst < 0 || a.Inst < 0:
		return ReuseCross
	case inst == a.Inst:
		return ReuseSelf
	case inst == a.Parent || parent == a.Inst:
		return ReuseParentChild
	case parent >= 0 && parent == a.Parent:
		return ReuseSibling
	}
	return ReuseCross
}

// ReuseStats counts classified hits per reuse class.
type ReuseStats struct {
	Self        int64
	ParentChild int64
	Sibling     int64
	Cross       int64
}

// Total returns the number of classified hits.
func (r ReuseStats) Total() int64 { return r.Self + r.ParentChild + r.Sibling + r.Cross }

// Share returns the given class's fraction of classified hits (0 for an
// empty breakdown).
func (r ReuseStats) Share(c ReuseClass) float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	switch c {
	case ReuseSelf:
		return float64(r.Self) / float64(t)
	case ReuseParentChild:
		return float64(r.ParentChild) / float64(t)
	case ReuseSibling:
		return float64(r.Sibling) / float64(t)
	case ReuseCross:
		return float64(r.Cross) / float64(t)
	}
	return 0
}

// Add accumulates o into r.
func (r *ReuseStats) Add(o ReuseStats) {
	r.Self += o.Self
	r.ParentChild += o.ParentChild
	r.Sibling += o.Sibling
	r.Cross += o.Cross
}

func (r *ReuseStats) count(c ReuseClass) {
	switch c {
	case ReuseSelf:
		r.Self++
	case ReuseParentChild:
		r.ParentChild++
	case ReuseSibling:
		r.Sibling++
	case ReuseCross:
		r.Cross++
	}
}

func (r ReuseStats) String() string {
	return fmt.Sprintf("self %d, parent-child %d, sibling %d, cross %d",
		r.Self, r.ParentChild, r.Sibling, r.Cross)
}

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses int64
	Hits     int64
}

// Misses returns Accesses - Hits.
func (s Stats) Misses() int64 { return s.Accesses - s.Hits }

// HitRate returns Hits/Accesses, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
}

func (s Stats) String() string {
	return fmt.Sprintf("%d/%d (%.1f%%)", s.Hits, s.Accesses, 100*s.HitRate())
}

type cacheLine struct {
	tag     uint64
	valid   bool
	lastUse uint64
	// inst and parent identify the kernel instance that installed the
	// line (attribution only; -1 when untagged). The installer keeps
	// ownership across hits: a line a parent installed stays attributed
	// to the parent however many children re-reference it.
	inst   int32
	parent int32
}

// Cache is a set-associative cache with true LRU replacement over 128-byte
// lines. It tracks contents and hit statistics only; timing lives in System.
type Cache struct {
	sets [][]cacheLine
	// mask selects a line's set: the set count is a power of two, so the
	// index is the line ID's low bits.
	mask    uint64
	useTick uint64
	stats   Stats
	attrib  bool
	reuse   ReuseStats
}

// NewCache builds a cache with the given set count and associativity. The
// set count must be a power of two.
func NewCache(numSets, assoc int) *Cache {
	if numSets <= 0 || assoc <= 0 {
		panic(fmt.Sprintf("mem: NewCache(%d, %d): geometry must be positive", numSets, assoc))
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("mem: NewCache(%d, %d): set count must be a power of two", numSets, assoc))
	}
	sets := make([][]cacheLine, numSets)
	backing := make([]cacheLine, numSets*assoc)
	for i := range sets {
		sets[i], backing = backing[:assoc:assoc], backing[assoc:]
	}
	return &Cache{sets: sets, mask: uint64(numSets - 1)}
}

// Access looks up the line identified by lineID (byte address divided by the
// line size), allocating it on a miss, and reports whether it hit. The
// access is counted in the cache's statistics.
func (c *Cache) Access(lineID uint64) bool {
	return c.AccessAs(lineID, NoAccessor)
}

// AccessAs is Access carrying the accessing kernel instance's identity.
// With attribution enabled the line is tagged on allocation and a hit is
// classified into the cache's ReuseStats; otherwise it behaves exactly like
// Access.
func (c *Cache) AccessAs(lineID uint64, acc Accessor) bool {
	set, way := c.find(lineID)
	if way >= 0 {
		c.hit(set, way, acc)
		return true
	}
	c.miss(set, lineID, acc)
	return false
}

// SetAttribution enables or disables reuse attribution. Toggling it does not
// clear existing tags or accumulated ReuseStats.
func (c *Cache) SetAttribution(on bool) { c.attrib = on }

// Reuse returns the accumulated hit-classification breakdown (zero unless
// attribution was enabled).
func (c *Cache) Reuse() ReuseStats { return c.reuse }

// Probe reports whether the line is present without allocating or touching
// LRU state or statistics.
func (c *Cache) Probe(lineID uint64) bool {
	_, way := c.find(lineID)
	return way >= 0
}

// Touch updates the line's LRU position if present without allocating; used
// for write-through-no-allocate stores that hit. Not counted in statistics
// and never reclassifies or retags the line.
func (c *Cache) Touch(lineID uint64) bool {
	set, way := c.find(lineID)
	c.useTick++
	if way < 0 {
		return false
	}
	set[way].lastUse = c.useTick
	return true
}

// find returns the line's set and the way holding it (-1 when absent). It
// changes nothing, so a caller may probe once and then act on the result
// with hit or miss.
func (c *Cache) find(lineID uint64) (set []cacheLine, way int) {
	set = c.sets[lineID&c.mask]
	for i := range set {
		if set[i].valid && set[i].tag == lineID {
			return set, i
		}
	}
	return set, -1
}

// hit counts a hit on set[way] (as found by find), makes it the most
// recently used line, and classifies it when attribution is on.
func (c *Cache) hit(set []cacheLine, way int, acc Accessor) {
	c.useTick++
	set[way].lastUse = c.useTick
	if c.attrib {
		c.reuse.count(acc.classify(set[way].inst, set[way].parent))
	}
	c.stats.Accesses++
	c.stats.Hits++
}

// miss counts a miss of lineID (absent from set, as found by find) and
// installs it, tagged with acc, in the set's first invalid way or else its
// least recently used way.
func (c *Cache) miss(set []cacheLine, lineID uint64, acc Accessor) {
	c.useTick++
	c.stats.Accesses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = cacheLine{tag: lineID, valid: true, lastUse: c.useTick,
		inst: acc.Inst, parent: acc.Parent}
}

// Stats returns the accumulated access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Occupancy returns the number of valid lines, for tests and introspection.
func (c *Cache) Occupancy() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}
