package mem

import (
	"fmt"
	"slices"

	"laperm/internal/config"
)

// mshrEntry is one outstanding L1 miss.
type mshrEntry struct {
	lineID   uint64
	complete uint64
}

// noExpiry is the nextExpire sentinel of an empty MSHR table.
const noExpiry = ^uint64(0)

// lineBuckets is the number of line-ID buckets an MSHR table keeps its
// entry counts, add stamps and watch counts in. A power of two.
const lineBuckets = 256

// mshrTable bounds and merges outstanding misses for one SMX's L1. An entry
// is live at cycle t exactly while t < complete; liveness is a pure function
// of the query cycle, so expiry is evaluated lazily — the table never needs
// to observe the cycles in between two queries, which makes it jump-safe
// under the engine's fast-forward clock: querying once after a skipped span
// yields the same answers as polling every elided cycle would have.
type mshrTable struct {
	// entries is sorted by completion cycle (ties in insertion order).
	// Fills complete in nearly the order they are added, so add's
	// insertion shift is short, and the entries prune expires are always
	// a prefix.
	entries []mshrEntry
	cap     int
	// nextExpire caches the minimum completion cycle over entries (noExpiry
	// when empty): prune is O(1) until that cycle arrives, and it is the
	// exact cycle a full table frees a slot — the release horizon the
	// fast-forward clock uses to wake MSHR-stalled warps. Because it is
	// the exact minimum, the table has a free slot at cycle t exactly when
	// len(entries) < cap or nextExpire <= t, whether or not t was pruned.
	nextExpire uint64
	// lastAdd is the cycle of the most recent add (noExpiry before the
	// first). A new entry can turn the blocked line of a stalled warp that
	// has not yet retried since the add into an MSHR merge (and, once the
	// fill lands, an L1 hit) on the very next cycle, so lastAdd+1 is then
	// a wake horizon alongside nextExpire.
	lastAdd uint64
	// gen counts adds, and stamp[b] is gen after the latest add whose line
	// fell in bucket b (Rejected). watch[b] counts the stalled loads of
	// every SMX the table serves that are blocked on bucket b (Stall), and
	// hot is gen after the latest add into a watched bucket (AllRejected).
	gen   uint64
	stamp [lineBuckets]uint64
	watch [lineBuckets]uint32
	hot   uint64
	// count[id%lineBuckets] is the number of entries whose line ID falls in
	// that bucket; a zero bucket proves the line has no outstanding miss.
	// config.Validate bounds the capacity by config.MaxL1MSHRs, so a
	// bucket cannot overflow.
	count [lineBuckets]uint16
}

// lookup returns the completion cycle of an outstanding miss to lineID, if
// one exists at cycle now (expired entries are pruned first).
func (m *mshrTable) lookup(lineID, now uint64) (uint64, bool) {
	m.prune(now)
	if m.count[lineID%lineBuckets] == 0 {
		return 0, false
	}
	for i := range m.entries {
		if m.entries[i].lineID == lineID {
			return m.entries[i].complete, true
		}
	}
	return 0, false
}

// prune drops entries whose fills have completed by cycle now — a prefix of
// the sorted entries. It is a no-op until nextExpire, so steady-state
// queries cost one comparison.
func (m *mshrTable) prune(now uint64) {
	if now < m.nextExpire {
		return
	}
	k := 0
	for k < len(m.entries) && m.entries[k].complete <= now {
		m.count[m.entries[k].lineID%lineBuckets]--
		k++
	}
	// Shift the live suffix down so the preallocated backing array keeps
	// its full capacity.
	m.entries = m.entries[:copy(m.entries, m.entries[k:])]
	m.nextExpire = noExpiry
	if len(m.entries) > 0 {
		m.nextExpire = m.entries[0].complete
	}
}

func (m *mshrTable) full(now uint64) bool {
	m.prune(now)
	return len(m.entries) >= m.cap
}

// fullAt is full without pruning: the nextExpire invariant answers it in
// O(1) for any cycle at or after the last prune, which every caller's cycle
// is (the clock never moves backwards).
func (m *mshrTable) fullAt(now uint64) bool {
	return len(m.entries) >= m.cap && m.nextExpire > now
}

// add records a new outstanding miss, inserting it after every entry that
// completes no later.
func (m *mshrTable) add(lineID, complete, now uint64) {
	i := len(m.entries)
	m.entries = append(m.entries, mshrEntry{})
	for ; i > 0 && m.entries[i-1].complete > complete; i-- {
		m.entries[i] = m.entries[i-1]
	}
	m.entries[i] = mshrEntry{lineID: lineID, complete: complete}
	m.nextExpire = m.entries[0].complete
	b := lineID % lineBuckets
	m.count[b]++
	m.lastAdd = now
	m.gen++
	m.stamp[b] = m.gen
	if m.watch[b] != 0 {
		m.hot = m.gen
	}
}

// reset empties the table to the state NewSystem builds it in, keeping the
// entries' backing array.
func (m *mshrTable) reset() {
	*m = mshrTable{entries: m.entries[:0], cap: m.cap, nextExpire: noExpiry, lastAdd: noExpiry}
}

// l1Port is the L1 and MSHR table serving one SMX (its cluster's).
type l1Port struct {
	l1   *Cache
	mshr *mshrTable
}

// Geometry is every configuration value the shape of a System's caches and
// MSHR tables depends on. Systems of one Geometry differ only in how many
// L1s they use and which SMXs share each, and Reset moves a System between
// those.
type Geometry struct {
	L1Sets, L1Assoc, L1MSHRs int
	L2Banks, L2Sets, L2Assoc int
}

// GeometryOf returns the geometry of the System NewSystem builds for cfg.
func GeometryOf(cfg *config.GPU) Geometry {
	return Geometry{
		L1Sets: cfg.L1Sets(), L1Assoc: cfg.L1Assoc, L1MSHRs: cfg.L1MSHRs,
		L2Banks: cfg.L2Banks, L2Sets: cfg.L2SetsPerBank(), L2Assoc: cfg.L2Assoc,
	}
}

// System is the complete memory hierarchy: one L1 (with MSHRs) per SMX,
// address-interleaved L2 banks, and a bandwidth-limited DRAM.
type System struct {
	cfg *config.GPU
	geo Geometry

	// l1 and mshr hold one L1 and MSHR table per cluster. Past their
	// lengths, the backing arrays keep those a machine with more clusters
	// built, for Reset to reuse.
	l1   []*Cache
	mshr []*mshrTable
	l2   []*Cache
	// port resolves each SMX to its cluster's L1 and MSHR table once, so
	// the per-access paths skip the cluster division.
	port []l1Port

	// l2Next is the next free service slot of each L2 bank (one access
	// per bank per cycle).
	l2Next []uint64
	// dramNextMilli is the next free DRAM service slot in millicycles,
	// advanced by the per-transaction service interval derived from the
	// bandwidth cap.
	dramNextMilli uint64
	dramTrans     int64
	storeAccesses int64
}

// NewSystem builds the memory hierarchy for the given configuration.
func NewSystem(cfg *config.GPU) *System {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("mem: invalid config: %v", err))
	}
	s := &System{
		cfg:    cfg,
		geo:    GeometryOf(cfg),
		l2:     make([]*Cache, cfg.L2Banks),
		l2Next: make([]uint64, cfg.L2Banks),
	}
	for i := range s.l2 {
		s.l2[i] = NewCache(cfg.L2SetsPerBank(), cfg.L2Assoc)
	}
	s.partition(cfg)
	return s
}

// partition gives the System one L1 and MSHR table per cluster of cfg —
// one per SMX with SMXsPerCluster == 1 (the K20c arrangement) — reusing
// those the backing arrays keep, and points every SMX at its cluster's.
// A reused L1 or table keeps its last contents until Reset clears it.
func (s *System) partition(cfg *config.GPU) {
	n := cfg.NumClusters()
	// Past the old lengths, a slot holds a kept L1 or table, or nil.
	s.l1, s.mshr = resize(s.l1, n), resize(s.mshr, n)
	for c := range s.l1 {
		if s.l1[c] == nil {
			s.l1[c] = NewCache(cfg.L1Sets(), cfg.L1Assoc)
		}
		if s.mshr[c] == nil {
			// The entry slice is preallocated to the table's capacity:
			// add never runs past it (full gates admission), and prune
			// reuses the backing array, so the MSHR path never allocates
			// again.
			s.mshr[c] = &mshrTable{
				entries:    make([]mshrEntry, 0, cfg.L1MSHRs),
				cap:        cfg.L1MSHRs,
				nextExpire: noExpiry,
				lastAdd:    noExpiry,
			}
		}
	}
	s.port = s.port[:0]
	for i := 0; i < cfg.NumSMX; i++ {
		c := cfg.ClusterOf(i)
		s.port = append(s.port, l1Port{l1: s.l1[c], mshr: s.mshr[c]})
	}
}

// resize returns x with length n, keeping what its backing array holds up to
// n; the elements past its old length are nil where it held nothing.
func resize[T any](x []*T, n int) []*T {
	x = x[:min(n, cap(x))]
	return slices.Grow(x, n-len(x))[:n]
}

// Reset returns s, whatever state a run left it in, to exactly the state
// NewSystem(cfg) builds one in, keeping its allocations; the SMX count and
// cluster size may change. cfg must be valid; Reset panics unless it has
// s's Geometry.
func (s *System) Reset(cfg *config.GPU) {
	if g := GeometryOf(cfg); g != s.geo {
		panic(fmt.Sprintf("mem: Reset to geometry %+v of a System built for %+v", g, s.geo))
	}
	s.cfg = cfg
	s.partition(cfg)
	for _, c := range s.l1 {
		c.reset()
	}
	for _, m := range s.mshr {
		m.reset()
	}
	for _, c := range s.l2 {
		c.reset()
	}
	clear(s.l2Next)
	s.dramNextMilli, s.dramTrans, s.storeAccesses = 0, 0, 0
}

// mix64 is the (bijective) splitmix64 finalizer. The L2 hashes line
// addresses through it before bank/set selection, as NVIDIA L2s hash
// physical addresses: without hashing, power-of-two strides (4 KB slabs,
// region bases) alias onto a fraction of the sets and cyclic workloads
// degrade to zero hits.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// l2Place maps a line to its L2 bank and the placement ID used inside the
// bank's cache. mix64 is bijective and IDs within one bank share the same
// residue, so placement IDs stay unique per line.
func (s *System) l2Place(lineID uint64) (bank int, placeID uint64) {
	h := mix64(lineID)
	n := uint64(s.cfg.L2Banks)
	return int(h % n), h / n
}

// l2Access performs the shared-L2 leg of an access, returning the completion
// cycle. The access occupies the bank's single service port for one cycle;
// on a miss it additionally queues for DRAM.
func (s *System) l2Access(lineID, now uint64, acc Accessor) uint64 {
	bank, placeID := s.l2Place(lineID)
	start := now
	if s.l2Next[bank] > start {
		start = s.l2Next[bank]
	}
	s.l2Next[bank] = start + 1
	if s.l2[bank].AccessAs(placeID, acc) {
		return start + uint64(s.cfg.L2HitLatency)
	}
	return s.dramAccess(start)
}

// dramAccess queues one 128-byte DRAM transaction starting no earlier than
// `ready` and returns its completion cycle.
func (s *System) dramAccess(ready uint64) uint64 {
	// Service interval is 1000/DRAMTransPer1000Cycles core cycles per
	// transaction, tracked with millicycle precision.
	interval := uint64(1000000 / s.cfg.DRAMTransPer1000Cycles)
	startMilli := ready * 1000
	if s.dramNextMilli > startMilli {
		startMilli = s.dramNextMilli
	}
	s.dramNextMilli = startMilli + interval
	s.dramTrans++
	return startMilli/1000 + uint64(s.cfg.DRAMLatency)
}

// NextStallWake returns the earliest cycle >= next at which a warp of the
// given SMX stalled on a full MSHR table could make progress, or ^uint64(0)
// when no such cycle is scheduled; every stalled warp has observed the
// table's generation (MSHRState) minGen or a later one. A slot free at next
// (expired fills can linger unclaimed while issue-width starvation delays
// a retry) wakes at once, else the earliest fill completion (nextExpire)
// does. An add can also turn a blocked line into an MSHR merge a cycle
// later, so lastAdd+1 wakes too — unless minGen == gen: then every stalled
// warp retried after the latest add (a full table admits no add within the
// cycle of a rejection). A lastAdd+1 below next has already been observed
// by a retry and never rearms. Every case is O(1).
func (s *System) NextStallWake(smx int, next, minGen uint64) uint64 {
	m := s.port[smx].mshr
	if !m.fullAt(next) {
		return next
	}
	// A full table implies no entry expires by next, so nextExpire > next.
	wake := m.nextExpire
	if minGen < m.gen { // some add happened, so lastAdd is set
		if a := m.lastAdd + 1; a >= next && a < wake {
			wake = a
		}
	}
	return wake
}

// MSHRState returns whether the MSHR table serving the given SMX is full at
// cycle now, and its add generation: the number of misses it has accepted.
// A full table stays full for the rest of the cycle — no entry completes
// within it and a full table admits no add — so an issue scan reads both
// once and refreshes them only after a load it issued may have added a
// miss.
func (s *System) MSHRState(smx int, now uint64) (full bool, gen uint64) {
	m := s.port[smx].mshr
	return m.fullAt(now), m.gen
}

// Stall records that a load of lineID by the given SMX was just rejected
// and will be retried: its bucket is watched until Unstall. A retrying warp
// unstalls its load before reissuing it, so its own add never marks the
// table hot.
func (s *System) Stall(smx int, lineID uint32) { s.port[smx].mshr.watch[lineID%lineBuckets]++ }

// Unstall drops a load recorded by Stall.
func (s *System) Unstall(smx int, lineID uint32) { s.port[smx].mshr.watch[lineID%lineBuckets]-- }

// Rejected reports whether a load of lineID by the given SMX, rejected when
// the table's generation (MSHRState) was since or later, is rejected again
// at cycle now: the table is full, and no add since fell in the line's
// bucket. A line enters the table or the L1 only through a miss's add
// (stores only touch the L1, hits never allocate), so a true answer is
// exact — LoadAs would change no state and return ok=false. False (a
// bucket collision among them) sends the caller to a real LoadAs.
func (s *System) Rejected(smx int, lineID uint32, since, now uint64) bool {
	m := s.port[smx].mshr
	return m.fullAt(now) && m.stamp[lineID%lineBuckets] <= since
}

// AllRejected is Rejected for every load the given SMX has stalled at
// once: the table is full, and no add since fell in a bucket any stalled
// load of the table's SMXs is watching — from its rejection on, so any
// later add of its line marks the table hot.
func (s *System) AllRejected(smx int, since, now uint64) bool {
	m := s.port[smx].mshr
	return m.fullAt(now) && m.hot <= since
}

// CheckMSHRs validates every MSHR table's stall bookkeeping for the
// engine's audit: no stamp and no hot generation ahead of the table's, and
// each bucket's watch count equal to a recount over the SMXs it serves,
// stalled[smx] listing the lines that SMX's stalled loads are blocked on
// (none for an SMX past its end).
func (s *System) CheckMSHRs(stalled [][]uint32) error {
	for i := 0; i < len(s.port); i += s.cfg.SMXsPerCluster {
		m, watch := s.port[i].mshr, [lineBuckets]uint32{}
		for j := i; j < min(i+s.cfg.SMXsPerCluster, len(stalled)); j++ {
			for _, id := range stalled[j] {
				watch[id%lineBuckets]++
			}
		}
		for b := range m.stamp {
			if m.stamp[b] > m.gen || m.hot > m.gen || m.watch[b] != watch[b] {
				return fmt.Errorf("mshr %d at generation %d: bucket %d stamped %d, hot %d, watches %d stalled loads, its SMXs hold %d",
					i, m.gen, b, m.stamp[b], m.hot, m.watch[b], watch[b])
			}
		}
	}
	return nil
}

// Load performs one coalesced 128-byte load transaction for the given SMX at
// cycle now. lineAddr must be line-aligned (an isa line ID times
// config.LineSize). It returns the cycle at which the data is available and ok=false if the
// SMX's MSHRs are full (the caller must retry on a later cycle; the access
// is not counted).
func (s *System) Load(smx int, lineAddr, now uint64) (complete uint64, ok bool) {
	return s.LoadAs(smx, lineAddr, now, NoAccessor)
}

// LoadAs is Load carrying the accessing kernel instance's identity for reuse
// attribution. A hit that merges with an outstanding MSHR entry is not
// classified: the data was not in the cache, so no reuse occurred.
func (s *System) LoadAs(smx int, lineAddr, now uint64, acc Accessor) (complete uint64, ok bool) {
	lineID := lineAddr / config.LineSize
	l1, tbl := s.port[smx].l1, s.port[smx].mshr

	// A hit under an outstanding miss to the same line merges with the
	// MSHR entry: it completes with the fill, counts as an L1 miss (the
	// data was not in the cache), but generates no new L2 traffic.
	if c, merged := tbl.lookup(lineID, now); merged {
		l1.stats.Accesses++
		return c, true
	}
	// One probe of the line's set serves the hit, or the allocation of a
	// miss that gets an MSHR.
	slot := l1.find(lineID)
	if slot >= 0 {
		l1.hit(slot, acc) // counts the hit and updates LRU
		return now + uint64(s.cfg.L1HitLatency), true
	}
	// Miss: needs an MSHR before it can allocate and go to L2. A full
	// table rejects the access entirely (not counted); the warp retries.
	if tbl.full(now) {
		return 0, false
	}
	l1.miss(^slot, lineID, acc) // counts the miss and allocates the fill target
	c := s.l2Access(lineID, now, acc)
	tbl.add(lineID, c, now)
	return c, true
}

// Store performs one coalesced 128-byte store transaction. Kepler L1s are
// write-through/no-allocate for global stores: the L1 is updated only if the
// line is already present, and the transaction always proceeds to the L2
// (write-allocate). Stores do not occupy MSHRs and never stall the issuing
// warp; the returned cycle is when the store drains, for accounting only.
func (s *System) Store(smx int, lineAddr, now uint64) uint64 {
	return s.StoreAs(smx, lineAddr, now, NoAccessor)
}

// StoreAs is Store carrying the accessing kernel instance's identity. The
// write-through L1 touch neither classifies nor retags; the L2 leg tags the
// allocated line and classifies an L2 hit like a load would.
func (s *System) StoreAs(smx int, lineAddr, now uint64, acc Accessor) uint64 {
	lineID := lineAddr / config.LineSize
	s.port[smx].l1.Touch(lineID)
	s.storeAccesses++
	return s.l2Access(lineID, now, acc)
}

// SetAttribution enables reuse attribution on every cache in the hierarchy.
// Off (the default), tagged accesses behave exactly like untagged ones and
// the reuse breakdowns stay zero.
func (s *System) SetAttribution(on bool) {
	for _, c := range s.l1 {
		c.SetAttribution(on)
	}
	for _, c := range s.l2 {
		c.SetAttribution(on)
	}
}

// L1Reuse returns the hit-classification breakdown aggregated over all L1s.
func (s *System) L1Reuse() ReuseStats {
	var t ReuseStats
	for _, c := range s.l1 {
		t.Add(c.Reuse())
	}
	return t
}

// L2Reuse returns the hit-classification breakdown aggregated over all L2
// banks.
func (s *System) L2Reuse() ReuseStats {
	var t ReuseStats
	for _, c := range s.l2 {
		t.Add(c.Reuse())
	}
	return t
}

// L1Stats returns the load statistics of the L1 serving the given SMX (its
// cluster's cache).
func (s *System) L1Stats(smx int) Stats { return s.port[smx].l1.Stats() }

// L1Total returns load statistics aggregated over all L1s.
func (s *System) L1Total() Stats {
	var t Stats
	for _, c := range s.l1 {
		t.Add(c.Stats())
	}
	return t
}

// L2Total returns statistics aggregated over all L2 banks (loads that missed
// L1, plus stores).
func (s *System) L2Total() Stats {
	var t Stats
	for _, c := range s.l2 {
		t.Add(c.Stats())
	}
	return t
}

// DRAMTransactions returns the number of off-chip transactions issued.
func (s *System) DRAMTransactions() int64 { return s.dramTrans }

// StoreCount returns the number of store transactions processed.
func (s *System) StoreCount() int64 { return s.storeAccesses }
