// Package smx models one streaming multiprocessor: resident thread blocks
// with resource accounting, per-warp execution state, the warp scheduler
// (Greedy-Then-Oldest by default, per Table I), the memory coalescer, and
// block-wide barriers. The package is deliberately unaware of kernels and
// TB scheduling; the GPU engine owns those and observes SMX events through
// the Events interface.
//
// One issue scan serves every warp policy (scan.go). It visits only warps
// that can act: ready and stalled warps are bits over the age-ordered warp
// list, warps waiting out a latency sit in a min-heap on their wake cycle,
// and the MSHR-stalled warps' retries are proved to fail again by the MSHR
// table's one rejection rule, per warp (mem.Rejected) or all at once
// (mem.AllRejected). Each Tick leaves behind the SMX's horizon, which the
// engine's fast-forward clock reads without recomputing it.
package smx

import (
	"fmt"
	"math/bits"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// Policy selects the warp scheduling discipline.
type Policy int

const (
	// GTO is Greedy-Then-Oldest (Table I): keep issuing from the warp
	// that issued last; when it cannot issue, fall back to the oldest
	// ready warp.
	GTO Policy = iota
	// LRR is loose round-robin over resident warps.
	LRR
	// TwoLevel is the two-level scheduler of Narasiman et al.: warps are
	// partitioned into fetch groups of TwoLevelGroupSize; issue stays
	// within the active group until it has nothing ready, then moves to
	// the next group. Grouping keeps groups at different program points,
	// overlapping one group's memory stalls with another's compute.
	TwoLevel
)

// Policies lists every warp policy in declaration order.
func Policies() []Policy { return []Policy{GTO, LRR, TwoLevel} }

// TwoLevelGroupSize is the fetch-group width of the TwoLevel policy.
const TwoLevelGroupSize = 8

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case GTO:
		return "gto"
	case LRR:
		return "lrr"
	case TwoLevel:
		return "two-level"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Events receives notifications from an SMX. The GPU engine implements it.
type Events interface {
	// Launch is invoked when a warp executes a device-side launch
	// instruction. It returns false when the launch queue (KMU pending
	// pool or DTBL aggregation buffer) is full and the warp must stall
	// and retry next cycle; retry marks such a reissue of a previously
	// stalled launch.
	Launch(smxID int, b *Block, child *isa.Kernel, now uint64, retry bool) bool
	// LaunchFrees returns a monotone count of launch-queue releases (KMU
	// pending-pool and direct-pool entries freed). Between two releases
	// the queues only fill, so a launch refused while the count was n is
	// refused again for as long as it still reads n.
	LaunchFrees() uint64
	// BlockDone is invoked when every warp of a resident block has
	// retired and its resources have been freed. The Block record may be
	// recycled for a later dispatch once the callback returns, so
	// implementations must copy out any fields they need to keep.
	BlockDone(smxID int, b *Block, now uint64)
}

// Block is one resident thread block.
type Block struct {
	Prog *isa.TB
	// Owner is an opaque reference for the GPU engine (the kernel
	// instance the block belongs to).
	Owner any
	// Seq is the global dispatch sequence number, used for age ordering.
	Seq uint64
	// DispatchCycle records when the block was placed on the SMX.
	DispatchCycle uint64
	// TBIndex is the block's index within its grid (-1 when the engine
	// did not supply one), for trace pairing of dispatch and retirement.
	TBIndex int
	// Tag is the reuse-attribution identity every memory access of the
	// block carries (mem.NoAccessor when untagged).
	Tag mem.Accessor

	warps     []*warp
	arrived   int // warps waiting at the current barrier
	doneWarps int
	// retireAt is the completion cycle of the block's last instruction;
	// resources are held until then.
	retireAt uint64
	dead     bool
}

// warp is one resident warp. The scan reads a record only when the warp
// issues or its stalled load may succeed (see scan.go).
type warp struct {
	// readyAt is the first cycle the warp may issue again (stale while it
	// is MSHR-stalled: it then retries every cycle).
	readyAt uint64
	// pending holds the line IDs of the current memory instruction not
	// yet accepted by the memory system (MSHR stalls): a suffix of the
	// instruction's lines in the program's read-only line arena
	// (isa.TB.LinesOf), only ever resliced, so issuing memory instructions
	// neither allocates nor copies. A line's byte address is its ID times
	// config.LineSize.
	pending   []uint32
	atBarrier bool
	done      bool
	// launchStalled marks a warp blocked at a launch instruction by a
	// full launch queue; it retries the launch every cycle.
	launchStalled bool

	block *Block
	// insts is the warp's instruction stream (its block program's
	// Warps[i]), and pc the index of its next instruction.
	insts []isa.Inst
	pc    int
	// pos is the warp's index in SMX.warps: its bit in the scan's bitsets
	// and its slot in the per-position stall arrays.
	pos int
	// pendingMax is the latest completion cycle among the transactions
	// already issued for the current memory instruction.
	pendingMax uint64
}

// Stats aggregates execution statistics for one SMX.
type Stats struct {
	// ThreadInsts counts issued instructions weighted by active lanes
	// (the numerator of IPC).
	ThreadInsts int64
	// WarpInsts counts issued warp instructions.
	WarpInsts int64
	// ResidentCycles counts cycles with at least one resident warp.
	ResidentCycles uint64
	// IssueCycles counts cycles in which at least one instruction
	// issued.
	IssueCycles uint64
	// BlocksCompleted counts retired thread blocks.
	BlocksCompleted int
	// MemStallEvents counts cycles a warp spent blocked on a full MSHR
	// table.
	MemStallEvents int64
	// LaunchStallEvents counts cycles a warp spent blocked on a full
	// launch queue (KMU pending pool or DTBL aggregation buffer).
	LaunchStallEvents int64
}

// SMX is one streaming multiprocessor.
type SMX struct {
	ID     int
	cfg    *config.GPU
	mem    *mem.System
	events Events
	policy Policy

	blocks []*Block
	warps  []*warp // issue-age order (dispatch order)

	// Issue-scan state over warp positions (scan.go). ready holds the warps
	// that can issue, plus the launch-stalled ones; stalled holds the
	// MSHR-stalled ones; seen the warps the current scan has visited. wake
	// holds every other warp that is neither done nor at a barrier, keyed
	// on its readyAt. tickEnd is the cycle after the last Tick: a waiting
	// warp is in wake exactly while its readyAt >= tickEnd.
	ready, stalled, seen bitset
	wake                 wakeHeap
	tickEnd              uint64
	// stallLine holds, per position, an MSHR-stalled warp's blocked line
	// ID (its pending[0]), whose bucket the MSHR table watches (mem.Stall).
	// stallGen is the table's generation after the last scan that visited
	// every stalled warp: every stalled warp has observed a generation at
	// or after it, so a retry proved against it is exact.
	stallLine []uint32
	stallGen  uint64
	// full and gen are the MSHR table's state as of the scan's last load;
	// bulk records that every stalled warp the scan has yet to visit was
	// proved to fail its retry (mem.AllRejected), and bulkTried that the
	// proof was attempted on the full table.
	full, bulk, bulkTried bool
	gen                   uint64

	usedThreads int
	usedRegs    int
	usedShmem   int

	greedy      *warp
	rrCursor    int
	activeGroup int
	nextSeq     *uint64
	stats       Stats
	needSweep   bool
	// retiring holds blocks whose warps have all finished issuing but
	// whose final instructions are still in flight.
	retiring []*Block
	// launchStalledWarps / memStalledWarps count warps blocked on a full
	// launch queue / MSHR table. Each such warp retries exactly once per
	// cycle (a failed attempt sets readyAt past the current cycle), so
	// these counts are also the per-cycle stall-event rates the
	// fast-forward clock bulk-applies over skipped spans.
	launchStalledWarps int
	memStalledWarps    int
	// scanShort records that the last issue scan stopped at the issue
	// width (or, for TwoLevel, inside the active group) without visiting
	// every warp: a stalled warp may have been starved of its retry, its
	// last observation of the blocking queue or MSHR table is stale, and
	// the stall-wake horizons cannot be trusted until a full scan runs —
	// Tick pins the horizon to the next cycle while this holds.
	scanShort bool
	// launchSeen is the Events.LaunchFrees count at the last full Tick
	// that left warps launch-stalled: while it is unchanged, their retries
	// provably fail again and TickFF may elide them.
	launchSeen uint64
	// horizon is the earliest cycle the SMX can act on its own, set at
	// the end of each Tick and lowered by AddBlockAttr. Nothing the SMX
	// observes changes before it: its warps only move when it ticks or the
	// engine dispatches onto it, and while it has stalled warps its MSHR
	// table, full at the tick, admits no add by any SMX of its cluster
	// before the first fill completes, which bounds the horizon.
	horizon uint64
	// freeBlocks / freeWarps recycle retired Block and warp records so
	// steady-state dispatch allocates nothing: sweep pushes a dead block's
	// records here and AddBlockAttr pops (and fully reinitializes) them.
	// Pool sizes are bounded by the SMX's peak residency over every run it
	// served (Reset keeps them for the next run). A retired Block keeps its
	// fields until the memory is reused by a later dispatch or a Reset, so
	// a BlockDone observer must copy out anything it needs to keep.
	freeBlocks []*Block
	freeWarps  []*warp
}

// New builds an SMX. nextSeq is a shared dispatch-sequence counter owned by
// the GPU engine so that block ages are globally ordered.
func New(id int, cfg *config.GPU, m *mem.System, ev Events, policy Policy, nextSeq *uint64) *SMX {
	// The scan state starts sized for a full complement of warps; grow
	// extends it past that only on demand.
	n := cfg.WarpsPerSMX()
	words := (n + 63) >> 6
	b := make(bitset, 3*words)
	s := &SMX{ID: id, mem: m,
		ready: b[:words:words], stalled: b[words : 2*words : 2*words], seen: b[2*words:],
		wake: make(wakeHeap, 0, n), stallLine: make([]uint32, 0, n)}
	s.Bind(cfg, ev, policy, nextSeq)
	return s
}

// Bind attaches a new or Reset SMX to a run: its configuration, which must
// have the warps per SMX the SMX was built for, the engine observing its
// events, its warp policy and the engine's dispatch-sequence counter.
func (s *SMX) Bind(cfg *config.GPU, ev Events, policy Policy, nextSeq *uint64) {
	s.cfg, s.events, s.policy, s.nextSeq = cfg, ev, policy, nextSeq
}

// Reset readies the SMX for another run, whatever state this one left it
// in. Every block still resident (a run may stop with work in flight) joins
// the freelists, every freelisted Block and warp record drops its program,
// owner and block, and every other field returns to New's state with no
// configuration, engine or sequence counter bound until Bind. The freelists
// and the backing arrays survive, so a reset SMX allocates no more than its
// last run did, and reaches nothing of that run.
func (s *SMX) Reset() {
	for _, b := range s.blocks {
		s.freeWarps = append(s.freeWarps, b.warps...)
		s.freeBlocks = append(s.freeBlocks, b)
	}
	for _, b := range s.freeBlocks {
		*b = Block{warps: b.warps[:0]}
	}
	for _, w := range s.freeWarps {
		*w = warp{}
	}
	words := (s.cfg.WarpsPerSMX() + 63) >> 6
	clear(s.ready)
	clear(s.stalled)
	clear(s.seen)
	clear(s.wake)
	clear(s.blocks)
	clear(s.warps)
	clear(s.retiring)
	*s = SMX{ID: s.ID, mem: s.mem,
		ready: s.ready[:words], stalled: s.stalled[:words], seen: s.seen[:words],
		wake: s.wake[:0], stallLine: s.stallLine[:0],
		blocks: s.blocks[:0], warps: s.warps[:0], retiring: s.retiring[:0],
		freeBlocks: s.freeBlocks, freeWarps: s.freeWarps}
}

// CanFit reports whether the block's resource demands fit in the SMX's
// currently free resources (threads, TB slots, registers, shared memory).
func (s *SMX) CanFit(tb *isa.TB) bool {
	return len(s.blocks) < s.cfg.TBsPerSMX &&
		s.usedThreads+tb.Threads <= s.cfg.ThreadsPerSMX &&
		s.usedRegs+tb.Registers() <= s.cfg.RegistersPerSMX &&
		s.usedShmem+tb.SharedMemBytes <= s.cfg.SharedMemPerSMX
}

// AddBlock places a thread block on the SMX with no attribution identity
// (tests and standalone use). The caller must have checked CanFit; AddBlock
// panics otherwise.
func (s *SMX) AddBlock(tb *isa.TB, owner any, now uint64) *Block {
	return s.AddBlockAttr(tb, owner, -1, mem.NoAccessor, now)
}

// AddBlockAttr is AddBlock carrying the block's grid index and the
// reuse-attribution accessor its memory accesses are tagged with. Both are
// set before any retirement callback can fire, so even an empty block's
// BlockDone observes them.
func (s *SMX) AddBlockAttr(tb *isa.TB, owner any, tbIndex int, tag mem.Accessor, now uint64) *Block {
	if !s.CanFit(tb) {
		panic(fmt.Sprintf("smx %d: AddBlock without resources for %d threads", s.ID, tb.Threads))
	}
	s.horizon = now // new warps can issue this very cycle
	b := s.newBlock()
	b.Prog, b.Owner, b.Seq, b.DispatchCycle, b.TBIndex, b.Tag = tb, owner, *s.nextSeq, now, tbIndex, tag
	*s.nextSeq++
	s.usedThreads += tb.Threads
	s.usedRegs += tb.Registers()
	s.usedShmem += tb.SharedMemBytes
	s.blocks = append(s.blocks, b)
	for i := 0; i < tb.NumWarps(); i++ {
		w := s.newWarp()
		w.block, w.insts, w.readyAt, w.pos = b, tb.Warps[i], now, len(s.warps)
		b.warps = append(b.warps, w)
		s.warps = append(s.warps, w)
		s.grow()
		switch {
		case len(w.insts) == 0:
			w.done = true
			b.doneWarps++
		case now < s.tickEnd:
			s.ready.set(w.pos)
		default:
			s.wake.push(now, w)
		}
	}
	// A block whose every warp is empty completes immediately.
	if b.doneWarps == len(b.warps) {
		s.retire(b, now)
		s.sweep()
	}
	return b
}

// ResidentBlocks returns the number of live blocks on the SMX.
func (s *SMX) ResidentBlocks() int { return len(s.blocks) }

// Idle reports whether the SMX has no resident warps.
func (s *SMX) Idle() bool { return len(s.warps) == 0 }

// Stats returns accumulated statistics.
func (s *SMX) Stats() Stats { return s.stats }

// NextEvent returns the earliest cycle >= next at which the SMX can make
// progress on its own — the horizon — or ^uint64(0) when it holds no work,
// so the engine's fast-forward clock may skip it until a dispatch.
func (s *SMX) NextEvent(next uint64) uint64 {
	if len(s.warps) == 0 {
		return ^uint64(0)
	}
	return max(s.horizon, next)
}

// TickFF is Tick under the fast-forward clock: before the horizon, on a
// cycle some other component pinned, the whole tick — including the issue
// scan a stalled SMX would otherwise pay — is replaced by a one-cycle
// SkipIdle, whose elided launch retries it returns for the engine's
// launch-backpressure counter (0 after a real Tick, whose retries reach the
// engine through Launch). Every elided MSHR retry would have failed, since
// nothing the SMX observes changes before the horizon. A launch queue can
// free on this very cycle through the engine's KMU or TB dispatch, but
// every release bumps Events.LaunchFrees, so while it still reads the count
// of the last full Tick, every elided launch retry would have failed too.
func (s *SMX) TickFF(now uint64) (launchRetries uint64) {
	if now < s.horizon &&
		(s.launchStalledWarps == 0 || s.events.LaunchFrees() == s.launchSeen) {
		return s.SkipIdle(1)
	}
	s.Tick(now)
	return 0
}

// SkipIdle credits an elided span of `cycles` cycles, all strictly before
// every engine horizon, and returns the number of elided failing launch
// attempts (for the engine's launch-backpressure cycle counter). On such
// cycles a dense Tick counts resident occupancy and retries each stalled
// warp exactly once — the retry must fail, since the blocking queue or MSHR
// table cannot change state before the horizon — so bulk-adding occupancy
// and the per-cycle stall rates here keeps Stats (and the load-imbalance
// metric derived from them) byte-identical to dense clocking.
func (s *SMX) SkipIdle(cycles uint64) (launchRetries uint64) {
	if len(s.warps) == 0 {
		return 0
	}
	s.stats.ResidentCycles += cycles
	s.stats.MemStallEvents += int64(uint64(s.memStalledWarps) * cycles)
	launchRetries = uint64(s.launchStalledWarps) * cycles
	s.stats.LaunchStallEvents += int64(launchRetries)
	return launchRetries
}

// Tick advances the SMX by one cycle, issuing up to IssueWidth warp
// instructions and retiring blocks whose final instructions have drained.
func (s *SMX) Tick(now uint64) {
	if len(s.warps) == 0 {
		return
	}
	s.stats.ResidentCycles++
	s.tickEnd = now + 1
	// Stalled warps retry (and re-fail) every cycle regardless of the
	// horizon, so the early return applies only to stall-free SMXs.
	if now < s.horizon && s.launchStalledWarps == 0 && s.memStalledWarps == 0 {
		return
	}
	// Retire blocks whose last in-flight instruction has completed.
	if len(s.retiring) > 0 {
		keep := s.retiring[:0]
		for _, b := range s.retiring {
			if b.retireAt <= now {
				s.retire(b, now)
			} else {
				keep = append(keep, b)
			}
		}
		s.retiring = keep
	}
	for len(s.wake) > 0 && s.wake[0].at <= now {
		s.ready.set(s.wake.pop().pos)
	}
	issued := s.scan(now)
	if issued > 0 {
		s.stats.IssueCycles++
	}
	// A scan that stopped early (issue width reached, or TwoLevel staying
	// inside its active group) may have skipped a stalled warp's retry.
	if s.policy == TwoLevel {
		s.scanShort = issued > 0
	} else {
		s.scanShort = issued >= s.cfg.IssueWidth
	}
	// The next cycle anything can happen: the earliest issuable warp (one
	// the scan left ready, or the wake heap's first) or the earliest
	// pending block retirement. Warps at a barrier wake inside the tick in
	// which the last live warp arrives; MSHR-stalled warps wake when the
	// table frees a slot or, if one of them may have missed an add, the
	// cycle after it (mem.NextStallWake). Launch-stalled warps wake on a
	// release, which TickFF watches. A scan that stopped short of a stalled
	// warp leaves its view of the blocking resource stale, so the horizon
	// is then the next cycle.
	next := s.settle()
	if s.needSweep {
		s.sweep()
	}
	if s.launchStalledWarps > 0 {
		s.launchSeen = s.events.LaunchFrees()
	}
	if len(s.wake) > 0 && s.wake[0].at < next {
		next = s.wake[0].at
	}
	for _, b := range s.retiring {
		if b.retireAt < next {
			next = b.retireAt
		}
	}
	switch {
	case (s.memStalledWarps > 0 || s.launchStalledWarps > 0) && s.scanShort:
		next = now + 1
	case s.memStalledWarps > 0:
		next = min(next, s.mem.NextStallWake(s.ID, now+1, s.stallGen))
	}
	s.horizon = max(next, now+1)
}

// issue executes warp w's next instruction and reports whether it issued.
// An issued instruction's latency is positive (isa.Validate), so the warp
// leaves the ready set for the wake heap, a barrier, or retirement.
func (s *SMX) issue(w *warp, now uint64) bool {
	in := &w.insts[w.pc]
	switch in.Kind {
	case isa.OpCompute:
		w.readyAt = now + uint64(in.Arg)
		s.count(in)
		s.advance(w, now)
		return true
	case isa.OpLoad, isa.OpStore:
		return s.issueMem(w, in, now)
	case isa.OpBarrier:
		w.atBarrier = true
		w.block.arrived++
		s.count(in)
		s.releaseBarrier(w.block, now)
		return true
	case isa.OpLaunch:
		if !s.events.Launch(s.ID, w.block, w.block.Prog.Launches[in.Arg], now, w.launchStalled) {
			// Launch queue full: stall the warp and retry next
			// cycle (backpressure on the parent kernel).
			if !w.launchStalled {
				w.launchStalled = true
				s.launchStalledWarps++
			}
			w.readyAt = now + 1
			s.stats.LaunchStallEvents++
			return false
		}
		if w.launchStalled {
			w.launchStalled = false
			s.launchStalledWarps--
		}
		w.readyAt = now + 1
		s.count(in)
		s.advance(w, now)
		return true
	}
	panic(fmt.Sprintf("smx %d: unknown op kind %v", s.ID, in.Kind))
}

// issueMem issues the (possibly resumed) transactions of a memory
// instruction. in is nil when resuming a stalled instruction — always a
// load, since stores never stall — whose retry could not prove the load
// fails again: it may succeed. A resumed load leaves the MSHR table's watch
// before it reloads, and a load joins it only once rejected, so a warp's own
// accepted miss never spoils the next bulk proof (mem.AllRejected).
func (s *SMX) issueMem(w *warp, in *isa.Inst, now uint64) bool {
	wasStalled := in == nil // resuming implies a prior MSHR rejection
	isStore := false
	if in != nil {
		w.pending = w.block.Prog.LinesOf(in)
		w.pendingMax = 0
		isStore = in.Kind == isa.OpStore
	} else {
		s.mem.Unstall(s.ID, s.stallLine[w.pos])
	}
	for len(w.pending) > 0 {
		line := uint64(w.pending[0]) * config.LineSize
		var done uint64
		if isStore {
			// Stores retire without blocking the warp; the drain
			// cycle is accounted inside the memory system.
			s.mem.StoreAs(s.ID, line, now, w.block.Tag)
			done = now + 1
		} else {
			var ok bool
			done, ok = s.mem.LoadAs(s.ID, line, now, w.block.Tag)
			if !ok {
				// MSHRs full: retry remaining transactions
				// next cycle.
				if !wasStalled {
					s.memStalledWarps++
					s.stalled.set(w.pos)
				}
				s.stallLine[w.pos] = w.pending[0]
				s.mem.Stall(s.ID, w.pending[0])
				s.full, s.gen = s.mem.MSHRState(s.ID, now)
				s.stats.MemStallEvents++
				return false
			}
		}
		if done > w.pendingMax {
			w.pendingMax = done
		}
		w.pending = w.pending[1:]
	}
	if wasStalled {
		s.memStalledWarps--
		s.stalled.unset(w.pos)
	}
	w.readyAt = w.pendingMax
	if isStore {
		w.readyAt = now + 1
	} else {
		s.full, s.gen = s.mem.MSHRState(s.ID, now) // the loads may have added misses
	}
	if in == nil {
		in = &w.insts[w.pc]
	}
	s.count(in)
	s.advance(w, now)
	return true
}

func (s *SMX) count(in *isa.Inst) {
	s.stats.WarpInsts++
	s.stats.ThreadInsts += int64(in.ActiveLanes)
}

// advance moves the warp, whose readyAt the caller has just set, past its
// current instruction and into the wake heap. At stream end the warp stops
// issuing; its block's resources are released only once its last
// instruction completes (w.readyAt), matching hardware block retirement.
func (s *SMX) advance(w *warp, now uint64) {
	w.pc++
	if w.pc < len(w.insts) {
		s.wake.push(w.readyAt, w)
		return
	}
	w.done = true
	b := w.block
	b.doneWarps++
	if w.readyAt > b.retireAt {
		b.retireAt = w.readyAt
	}
	if b.doneWarps == len(b.warps) {
		if b.retireAt <= now {
			s.retire(b, now)
		} else {
			s.retiring = append(s.retiring, b)
		}
		return
	}
	// A finishing warp may be the last arrival a barrier was waiting on.
	// If the release finishes the block, the released warps' own advance
	// retires it — exactly once.
	s.releaseBarrier(b, now)
}

// releaseBarrier releases the block's barrier if every live warp has
// arrived.
func (s *SMX) releaseBarrier(b *Block, now uint64) {
	if b.arrived == 0 || b.arrived < len(b.warps)-b.doneWarps {
		return
	}
	b.arrived = 0
	for _, bw := range b.warps {
		if bw.atBarrier {
			bw.atBarrier = false
			bw.readyAt = now + 1
			s.advance(bw, now)
		}
	}
}

// retire frees the block's resources and notifies the engine.
func (s *SMX) retire(b *Block, now uint64) {
	b.dead = true
	s.usedThreads -= b.Prog.Threads
	s.usedRegs -= b.Prog.Registers()
	s.usedShmem -= b.Prog.SharedMemBytes
	s.stats.BlocksCompleted++
	s.needSweep = true
	s.events.BlockDone(s.ID, b, now)
}

// PendingWork reports whether the SMX holds work that will make progress on
// its own: a warp that can issue or is waiting out an instruction latency,
// or a block draining its final in-flight instructions. Warps stalled at a
// launch and warps parked at a barrier are excluded — their release depends
// on the engine (or on other warps) unblocking them, so they must not mask
// a scheduling deadlock from the forward-progress watchdog.
func (s *SMX) PendingWork() bool {
	for _, w := range s.warps {
		if !w.done && !w.atBarrier && !w.launchStalled {
			return true
		}
	}
	return len(s.retiring) > 0
}

// CheckInvariants validates the SMX's resource accounting against a
// recomputation from its resident blocks, returning a descriptive error on
// the first inconsistency. The engine's invariant auditor calls it
// periodically when auditing is enabled.
func (s *SMX) CheckInvariants() error {
	var threads, regs, shmem, liveWarps int
	for _, b := range s.blocks {
		if b.dead && !s.needSweep {
			return fmt.Errorf("smx %d: dead block (seq %d) still resident after sweep", s.ID, b.Seq)
		}
		if b.dead {
			continue
		}
		threads += b.Prog.Threads
		regs += b.Prog.Registers()
		shmem += b.Prog.SharedMemBytes
		liveWarps += len(b.warps)
		if b.doneWarps < 0 || b.doneWarps > len(b.warps) {
			return fmt.Errorf("smx %d: block (seq %d) doneWarps %d of %d warps", s.ID, b.Seq, b.doneWarps, len(b.warps))
		}
		if b.arrived > len(b.warps)-b.doneWarps {
			return fmt.Errorf("smx %d: block (seq %d) has %d warps at barrier, only %d live", s.ID, b.Seq, b.arrived, len(b.warps)-b.doneWarps)
		}
	}
	if threads != s.usedThreads || regs != s.usedRegs || shmem != s.usedShmem {
		return fmt.Errorf("smx %d: accounted (threads %d, regs %d, shmem %d) != recomputed (%d, %d, %d)",
			s.ID, s.usedThreads, s.usedRegs, s.usedShmem, threads, regs, shmem)
	}
	if s.usedThreads > s.cfg.ThreadsPerSMX || s.usedRegs > s.cfg.RegistersPerSMX || s.usedShmem > s.cfg.SharedMemPerSMX {
		return fmt.Errorf("smx %d: occupancy (threads %d, regs %d, shmem %d) exceeds limits (%d, %d, %d)",
			s.ID, s.usedThreads, s.usedRegs, s.usedShmem,
			s.cfg.ThreadsPerSMX, s.cfg.RegistersPerSMX, s.cfg.SharedMemPerSMX)
	}
	if len(s.blocks) > s.cfg.TBsPerSMX {
		return fmt.Errorf("smx %d: %d resident blocks exceed the %d-TB limit", s.ID, len(s.blocks), s.cfg.TBsPerSMX)
	}
	if !s.needSweep && liveWarps != len(s.warps) {
		return fmt.Errorf("smx %d: %d warps in issue list, blocks hold %d", s.ID, len(s.warps), liveWarps)
	}
	var launchStalled, memStalled int
	for _, w := range s.warps {
		if w.launchStalled {
			launchStalled++
		}
		if len(w.pending) > 0 {
			memStalled++
		}
	}
	if launchStalled != s.launchStalledWarps || memStalled != s.memStalledWarps {
		return fmt.Errorf("smx %d: stalled-warp counts (launch %d, mem %d) != recomputed (%d, %d)",
			s.ID, s.launchStalledWarps, s.memStalledWarps, launchStalled, memStalled)
	}
	return s.checkScan()
}

// checkScan recomputes the issue-scan state from warp state: each warp's
// position, its ready and stalled bits, its wake-heap membership (exactly
// the waiting warps, each once, keyed on its readyAt, in heap order), each
// stalled warp's blocked line, and the stall generation, which may not be
// ahead of the table's. The MSHR table's watch counts span a cluster's SMXs
// and are checked against StalledLines by mem.CheckMSHRs.
func (s *SMX) checkScan() error {
	n := len(s.warps)
	if len(s.ready) < (n+63)>>6 || len(s.stalled) != len(s.ready) || len(s.seen) != len(s.ready) || len(s.stallLine) < n {
		return fmt.Errorf("smx %d: scan state sized for fewer than its %d warps", s.ID, n)
	}
	inHeap := make([]int, n)
	for i, e := range s.wake {
		if i > 0 && s.wake[(i-1)/2].at > e.at {
			return fmt.Errorf("smx %d: wake heap out of order at entry %d", s.ID, i)
		}
		if e.w.pos < 0 || e.w.pos >= n || s.warps[e.w.pos] != e.w {
			return fmt.Errorf("smx %d: wake heap entry %d holds a warp not resident at its position", s.ID, i)
		}
		if e.at != e.w.readyAt {
			return fmt.Errorf("smx %d: wake heap entry %d keyed %d, its warp's readyAt is %d", s.ID, i, e.at, e.w.readyAt)
		}
		inHeap[e.w.pos]++
	}
	if _, gen := s.mem.MSHRState(s.ID, s.tickEnd); s.stallGen > gen {
		return fmt.Errorf("smx %d: stalled warps observed MSHR generation %d, the table is at %d", s.ID, s.stallGen, gen)
	}
	for p, w := range s.warps {
		if w.pos != p {
			return fmt.Errorf("smx %d: warp at position %d records position %d", s.ID, p, w.pos)
		}
		var ready, stalled, waiting bool
		switch {
		case w.done || w.atBarrier:
		case len(w.pending) > 0:
			stalled = true
		case w.launchStalled || w.readyAt < s.tickEnd:
			ready = true
		default:
			waiting = true
		}
		if s.ready.has(p) != ready || s.stalled.has(p) != stalled || (inHeap[p] == 1) != waiting || inHeap[p] > 1 {
			return fmt.Errorf("smx %d: warp %d (done %t, barrier %t, pending %d, launch-stalled %t, readyAt %d) has ready %t, stalled %t, "+
				"%d heap entries; want %t, %t, waiting %t", s.ID, p, w.done, w.atBarrier, len(w.pending), w.launchStalled, w.readyAt,
				s.ready.has(p), s.stalled.has(p), inHeap[p], ready, stalled, waiting)
		}
		if stalled && s.stallLine[p] != w.pending[0] {
			return fmt.Errorf("smx %d: stalled warp %d records blocked line %d, its load is blocked on %d", s.ID, p, s.stallLine[p], w.pending[0])
		}
	}
	for i := n; i < len(s.ready)<<6; i++ {
		if s.ready.has(i) || s.stalled.has(i) {
			return fmt.Errorf("smx %d: scan bit set at position %d past its %d warps", s.ID, i, n)
		}
	}
	return nil
}

// StalledLines returns the line IDs the SMX's MSHR-stalled warps are blocked
// on, one per stalled warp, for the engine's audit of the MSHR tables' watch
// counts (mem.CheckMSHRs).
func (s *SMX) StalledLines() []uint32 {
	var lines []uint32
	for wi, st := range s.stalled {
		for x := st; x != 0; x &= x - 1 {
			lines = append(lines, s.stallLine[wi<<6|bits.TrailingZeros64(x)])
		}
	}
	return lines
}

// newBlock pops a recycled Block record or allocates a fresh one. All
// engine-owned fields are reset here; the caller assigns the rest.
func (s *SMX) newBlock() *Block {
	if n := len(s.freeBlocks); n > 0 {
		b := s.freeBlocks[n-1]
		s.freeBlocks[n-1] = nil
		s.freeBlocks = s.freeBlocks[:n-1]
		b.warps = b.warps[:0]
		b.arrived, b.doneWarps, b.retireAt, b.dead = 0, 0, 0, false
		return b
	}
	return &Block{}
}

// newWarp pops a recycled warp record or allocates a fresh one. All fields
// except the caller-assigned ones (block, insts, readyAt, pos) are reset here.
func (s *SMX) newWarp() *warp {
	if n := len(s.freeWarps); n > 0 {
		w := s.freeWarps[n-1]
		s.freeWarps[n-1] = nil
		s.freeWarps = s.freeWarps[:n-1]
		w.pc, w.pending, w.pendingMax = 0, nil, 0
		w.atBarrier, w.done, w.launchStalled = false, false, false
		return w
	}
	return &warp{}
}

// grow sizes the per-position scan state for every resident warp. Residency
// is bounded by thread count, not cfg.WarpsPerSMX (a block's last warp may
// be partial), so it grows on demand; it allocates only past the SMX's peak
// residency and New's initial capacity.
func (s *SMX) grow() {
	n := len(s.warps)
	for len(s.stallLine) < n {
		s.stallLine = append(s.stallLine, 0)
	}
	for words := (n + 63) >> 6; len(s.ready) < words; {
		s.ready = append(s.ready, 0)
		s.stalled = append(s.stalled, 0)
		s.seen = append(s.seen, 0)
	}
}

// sweep removes dead blocks and their warps from the issue lists and
// recycles their records onto the free pools for the next dispatch. The
// surviving warps keep their age order; their positions, bits and stall
// slots move down with them. A dead block's warps are all done, so they own
// no bits and no wake-heap entries.
func (s *SMX) sweep() {
	s.needSweep = false
	warps := s.warps[:0]
	for i, w := range s.warps {
		if w.block.dead {
			continue
		}
		j := len(warps)
		warps = append(warps, w)
		if j == i {
			continue
		}
		w.pos = j
		s.ready.put(j, s.ready.has(i))
		s.stalled.put(j, s.stalled.has(i))
		s.stallLine[j] = s.stallLine[i]
	}
	for i := len(warps); i < len(s.warps); i++ {
		s.warps[i] = nil
		s.ready.unset(i)
		s.stalled.unset(i)
	}
	s.warps = warps
	blocks := s.blocks[:0]
	for _, b := range s.blocks {
		if !b.dead {
			blocks = append(blocks, b)
			continue
		}
		// The warps were just dropped from the issue list; the block's own
		// warp list keeps them reachable for recycling.
		s.freeWarps = append(s.freeWarps, b.warps...)
		s.freeBlocks = append(s.freeBlocks, b)
	}
	for i := len(blocks); i < len(s.blocks); i++ {
		s.blocks[i] = nil
	}
	s.blocks = blocks
	if s.greedy != nil && s.greedy.block.dead {
		s.greedy = nil
	}
	if s.rrCursor >= len(s.warps) {
		s.rrCursor = 0
	}
}
