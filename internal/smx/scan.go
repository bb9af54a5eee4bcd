package smx

// The issue scan. Every resident warp is in exactly one of four places,
// indexed by its position in SMX.warps (age order):
//
//   - the ready bitset: it can issue this cycle (readyAt has passed), or it
//     is launch-stalled and retries its launch every cycle;
//   - the stalled bitset: it is MSHR-stalled and retries its blocked load
//     every cycle;
//   - the wake heap: it is waiting out an instruction latency;
//   - nowhere: it is done or waiting at a barrier.
//
// A tick pops the heap's due warps into ready and then visits only set
// bits, in the order the warp policy dictates, so its cost follows the warps
// that can act rather than the resident ones.
//
// An MSHR-stalled warp's blocked line lives in a per-position array, so
// proving a retry fails again reads no warp record, and the MSHR table
// watches its bucket. After a scan that visited every stalled warp, all of
// them have observed the table's current generation — each visit found the
// table full, and a full table admits no add for the rest of the cycle — and
// it becomes stallGen; a short scan leaves stallGen as it was, which every
// stalled warp has still observed (generations only grow). A retry fails
// again while the table is full and no add since stallGen fell in its line's
// bucket (mem.Rejected). Whenever the table is full during a scan — at its
// start, or once the retries that claim freed slots have refilled it — and
// no add since stallGen fell in a bucket any stalled warp of the table waits
// on (mem.AllRejected), every remaining stalled warp's retry provably fails
// again: the scan then skips their bits and counts the stall events of the
// ones it passes in bulk.

import "math/bits"

// bitset is a set of warp positions.
type bitset []uint64

func (b bitset) has(p int) bool { return b[p>>6]&(1<<(p&63)) != 0 }
func (b bitset) set(p int)      { b[p>>6] |= 1 << (p & 63) }
func (b bitset) unset(p int)    { b[p>>6] &^= 1 << (p & 63) }

// put sets or clears position p.
func (b bitset) put(p int, on bool) {
	if on {
		b.set(p)
	} else {
		b.unset(p)
	}
}

// wakeEntry is a warp waiting out a latency until cycle at (its readyAt).
type wakeEntry struct {
	at uint64
	w  *warp
}

// wakeHeap is a binary min-heap of waiting warps on their wake cycle.
type wakeHeap []wakeEntry

func (h *wakeHeap) push(at uint64, w *warp) {
	*h = append(*h, wakeEntry{at, w})
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

// pop removes and returns the earliest entry's warp.
func (h *wakeHeap) pop() *warp {
	q := *h
	w := q[0].w
	n := len(q) - 1
	q[0] = q[n]
	q[n] = wakeEntry{}
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].at < q[c].at {
			c++
		}
		if q[i].at <= q[c].at {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return w
}

// scan runs one cycle's issue scan under the SMX's warp policy and returns
// the number of instructions issued. The policies differ only in which
// position ranges they walk and where they stop:
//
//   - GTO tries the greedy warp (the last one to issue) first, then the
//     rest oldest first, until the issue width;
//   - LRR walks the positions cyclically from its cursor; an issue at walk
//     step i moves the cursor i+1 positions on, and the walk continues from
//     the new cursor at step i+1 (so it skips ahead);
//   - TwoLevel walks its fetch groups from the active one and stops after
//     the first group that issues, at most the issue width within it.
func (s *SMX) scan(now uint64) int {
	n := len(s.warps)
	clear(s.seen)
	s.full, s.gen = s.mem.MSHRState(s.ID, now)
	s.bulk, s.bulkTried = false, false
	s.tryBulk(now)
	width, issued := s.cfg.IssueWidth, 0
	switch s.policy {
	case GTO:
		if g := s.greedy; g != nil && (s.ready.has(g.pos) || s.stalled.has(g.pos)) && s.visit(g.pos, now) {
			issued++
		}
		for lo := 0; issued < width; {
			p := s.scanRange(lo, n, now)
			if p < 0 {
				break
			}
			issued++
			s.greedy = s.warps[p]
			lo = p + 1
		}
	case LRR:
		c := s.rrCursor
		for i := 0; i < n && issued < width; {
			// Walk the remaining n-i steps from position (c+i) mod n.
			p, end := (c+i)%n, (c+i)%n+n-i
			q := s.scanRange(p, min(end, n), now)
			if q < 0 && end > n {
				q = s.scanRange(0, end-n, now)
			}
			if q < 0 {
				break
			}
			issued++
			i += (q - p + n) % n
			c = (c + i + 1) % n
			i++
		}
		s.rrCursor = c
	case TwoLevel:
		groups := (n + TwoLevelGroupSize - 1) / TwoLevelGroupSize
		for g := 0; g < groups && issued == 0; g++ {
			gi := (s.activeGroup + g) % groups
			lo, hi := gi*TwoLevelGroupSize, min(gi*TwoLevelGroupSize+TwoLevelGroupSize, n)
			for issued < width {
				p := s.scanRange(lo, hi, now)
				if p < 0 {
					break
				}
				issued++
				lo = p + 1
			}
			if issued > 0 {
				s.activeGroup = gi
			}
		}
	}
	return issued
}

// scanRange visits, oldest first, the warps in positions [lo, hi) that can
// act and were not yet visited this cycle, and returns the position of the
// first one that issues (-1 if none does). Under a bulk proof it visits only
// ready warps and counts a stall event for each stalled warp it passes.
// A visit changes no other unvisited warp's bits — a released barrier sends
// its warps to the wake heap, and a block retires only once all its warps
// are done — so one snapshot of each word serves its whole walk.
func (s *SMX) scanRange(lo, hi int, now uint64) int {
	for lo < hi {
		wi := lo >> 6
		mask := ^uint64(0) << (lo & 63)
		if top := hi - wi<<6; top < 64 {
			mask &= 1<<top - 1
		}
		cand := s.ready[wi]
		if !s.bulk {
			cand |= s.stalled[wi]
		}
		for cand &= mask &^ s.seen[wi]; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			if p := wi<<6 | b; s.visit(p, now) {
				if s.bulk {
					s.passStalled(wi, mask&(2<<b-1))
				}
				return p
			}
		}
		if s.bulk {
			s.passStalled(wi, mask)
		}
		lo = (wi + 1) << 6
	}
	return -1
}

// passStalled marks the not yet visited stalled warps of word wi under mask
// as visited by a bulk-proved retry, counting one stall event each.
func (s *SMX) passStalled(wi int, mask uint64) {
	x := s.stalled[wi] & mask &^ s.seen[wi]
	s.seen[wi] |= x
	s.stats.MemStallEvents += int64(bits.OnesCount64(x))
}

// visit is the scan's attempt to issue from the warp at position p, which
// can act this cycle; it reports whether an instruction issued. A warp that
// issues leaves both bitsets, so only one that stays stalled is marked seen.
func (s *SMX) visit(p int, now uint64) bool {
	if s.stalled.has(p) {
		s.seen.set(p)
		return s.retry(p, now)
	}
	w := s.warps[p]
	s.ready.unset(p)
	if s.issue(w, now) {
		return true
	}
	s.seen.set(p) // it stalled on its load or launch
	if w.launchStalled {
		s.ready.set(p) // refused: it retries next cycle
	}
	return false
}

// tryBulk attempts the bulk proof once the table is full: it cannot empty
// within the cycle, and no further add can happen, so the answer then holds
// for the rest of the scan. Before the table first fills (a slot freed since
// the last tick), the retries that claim the free slots run one by one; the
// proof is tried as soon as the table is full again.
func (s *SMX) tryBulk(now uint64) {
	if s.full && s.memStalledWarps > 0 {
		s.bulkTried = true
		s.bulk = s.mem.AllRejected(s.ID, s.stallGen, now)
	}
}

// retry is an MSHR-stalled warp's visit. Under a bulk proof, or when the
// table is full and no add since stallGen fell in the bucket of the warp's
// blocked line (mem.Rejected), the retry fails again and only counts one
// stall cycle. Only a retry that may succeed reads the warp record and
// reissues the load.
func (s *SMX) retry(p int, now uint64) bool {
	if !s.bulkTried {
		s.tryBulk(now)
	}
	if s.bulk || s.full && s.mem.Rejected(s.ID, s.stallLine[p], s.stallGen, now) {
		s.stats.MemStallEvents++
		return false
	}
	return s.issueMem(s.warps[p], nil, now)
}

// settle runs after the scan, before any sweep. It returns the earliest
// readyAt of a ready warp the scan did not visit (a scan that stops at the
// issue width leaves such warps; launch-stalled ones wake on a launch-queue
// release instead and are excluded), and when the scan visited every
// stalled warp, advances stallGen to the generation they all observed: the
// table's as of the scan's last load.
func (s *SMX) settle() (next uint64) {
	next = ^uint64(0)
	short := false
	for wi, r := range s.ready {
		for x := r &^ s.seen[wi]; x != 0; x &= x - 1 {
			if w := s.warps[wi<<6|bits.TrailingZeros64(x)]; !w.launchStalled && w.readyAt < next {
				next = w.readyAt
			}
		}
		short = short || s.stalled[wi]&^s.seen[wi] != 0
	}
	if !short {
		s.stallGen = s.gen
	}
	return next
}
