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
//
// A cache keeps its ways in flat per-slot arrays (tags, LRU stamps,
// installers), so a probe reads one set's tags as contiguous words. An MSHR
// table keeps one rejection rule: a rejected load stays rejected while the
// table is full and no add since it last looked fell in its line's bucket.
// Per-bucket add stamps prove it in O(1) for one load (Rejected), and one
// generation of the latest add into a bucket some stalled load watches
// proves it for all of an SMX's stalled loads at once (AllRejected).
//
// Reset returns a System to exactly the state NewSystem builds one in, for
// a later configuration of the same Geometry; the GPU engine's pool
// (internal/gpu) decides when a System is reused.
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

// Cache is a set-associative cache with true LRU replacement over 128-byte
// lines. It tracks contents and hit statistics only; timing lives in System.
//
// The ways are stored as flat per-slot arrays, slot set*assoc+way, so a probe
// reads one set's tags as assoc contiguous words and touches nothing else.
type Cache struct {
	// tags holds each slot's line ID plus one; 0 marks an invalid way. A
	// line ID is a byte address divided by config.LineSize (below 2^57),
	// or an L2 placement ID, which mix64 keeps below 2^64-1 for every such
	// line; so no stored line has the invalid tag.
	tags    []uint64
	lastUse []uint64
	// inst and parent identify the kernel instance that installed each
	// slot's line (attribution only; -1 when untagged). The installer keeps
	// ownership across hits: a line a parent installed stays attributed to
	// the parent however many children re-reference it.
	inst   []int32
	parent []int32
	assoc  int
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
	n := numSets * assoc
	words, ids := make([]uint64, 2*n), make([]int32, 2*n)
	return &Cache{
		tags:    words[:n:n],
		lastUse: words[n:],
		inst:    ids[:n:n],
		parent:  ids[n:],
		assoc:   assoc,
		mask:    uint64(numSets - 1),
	}
}

// reset returns the cache to the state NewCache builds it in: every way
// invalid, no installers, and the LRU clock, statistics, attribution and
// reuse breakdown cleared.
func (c *Cache) reset() {
	clear(c.tags)
	clear(c.lastUse)
	clear(c.inst)
	clear(c.parent)
	c.useTick, c.stats, c.attrib, c.reuse = 0, Stats{}, false, ReuseStats{}
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
	slot := c.find(lineID)
	if slot >= 0 {
		c.hit(slot, acc)
		return true
	}
	c.miss(^slot, lineID, acc)
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
	return c.find(lineID) >= 0
}

// Touch updates the line's LRU position if present without allocating; used
// for write-through-no-allocate stores that hit. Not counted in statistics
// and never reclassifies or retags the line.
func (c *Cache) Touch(lineID uint64) bool {
	slot := c.find(lineID)
	c.useTick++
	if slot < 0 {
		return false
	}
	c.lastUse[slot] = c.useTick
	return true
}

// find returns the slot holding the line, or the bitwise complement of its
// set's first slot when the line is absent. It changes nothing, so a caller
// may probe once and then act on the result with hit or miss.
func (c *Cache) find(lineID uint64) int {
	base := int(lineID&c.mask) * c.assoc
	tag := lineID + 1
	for i, t := range c.tags[base : base+c.assoc] {
		if t == tag {
			return base + i
		}
	}
	return ^base
}

// hit counts a hit on the line in slot (as found by find), makes it the most
// recently used line, and classifies it when attribution is on.
func (c *Cache) hit(slot int, acc Accessor) {
	c.useTick++
	c.lastUse[slot] = c.useTick
	if c.attrib {
		c.reuse.count(acc.classify(c.inst[slot], c.parent[slot]))
	}
	c.stats.Accesses++
	c.stats.Hits++
}

// miss counts a miss of lineID (absent from the set whose first slot is base,
// as found by find) and installs it, tagged with acc, in the set's first
// invalid way or else its least recently used way.
func (c *Cache) miss(base int, lineID uint64, acc Accessor) {
	c.useTick++
	c.stats.Accesses++
	victim := base
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == 0 {
			victim = i
			break
		}
		if c.lastUse[i] < c.lastUse[victim] {
			victim = i
		}
	}
	c.tags[victim], c.lastUse[victim] = lineID+1, c.useTick
	c.inst[victim], c.parent[victim] = acc.Inst, acc.Parent
}

// Stats returns the accumulated access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Occupancy returns the number of valid lines, for tests and introspection.
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
