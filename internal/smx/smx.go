// Package smx models one streaming multiprocessor: resident thread blocks
// with resource accounting, per-warp execution state, the warp scheduler
// (Greedy-Then-Oldest by default, per Table I), the memory coalescer, and
// block-wide barriers. The package is deliberately unaware of kernels and
// TB scheduling; the GPU engine owns those and observes SMX events through
// the Events interface.
package smx

import (
	"fmt"

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

// warp is one resident warp. The fields every issue scan reads come first,
// packed together, so a scan touches as little of each record as it can.
type warp struct {
	// readyAt is the first cycle the warp may issue again.
	readyAt uint64
	// pending holds the line IDs of the current memory instruction not
	// yet accepted by the memory system (MSHR stalls): a suffix of the
	// instruction's lines in the program's read-only line arena
	// (isa.TB.LinesOf), only ever resliced, so issuing memory instructions
	// neither allocates nor copies. A line's byte address is its ID times
	// config.LineSize.
	pending []uint32
	// rejectGen is the MSHR add generation (mem.MSHRGen) at which
	// pending[0] was last rejected; a stalled warp's retry first asks
	// mem.StillRejected whether the load provably fails again.
	rejectGen uint64
	atBarrier bool
	done      bool
	// launchStalled marks a warp blocked at a launch instruction by a
	// full launch queue; it retries the launch every cycle.
	launchStalled bool

	block *Block
	idx   int
	pc    int
	// pendingMax is the latest completion cycle among the transactions
	// already issued for the current memory instruction.
	pendingMax uint64
}

func (w *warp) stream() []isa.Inst { return w.block.Prog.Warps[w.idx] }

func (w *warp) canIssue(now uint64) bool {
	return !w.done && !w.atBarrier && w.readyAt <= now
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
	// nextReady is a conservative lower bound on the next cycle any
	// non-stalled resident warp can issue or a pending block can retire;
	// Tick returns immediately before it when no warp is stalled.
	nextReady uint64
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
	// NextEvent pins the next cycle while this holds.
	scanShort bool
	// launchSeen is the Events.LaunchFrees count at the last full Tick
	// that left warps launch-stalled: while it is unchanged, their retries
	// provably fail again and TickFF may elide them.
	launchSeen uint64
	// minRejectGen is the smallest rejectGen over the MSHR-stalled warps
	// after the last full Tick (see NextStallWake).
	minRejectGen uint64
	// barrierReleased records that a barrier released during the current
	// issue scan: the released warps may already have been folded into
	// the scan's wake bound, so Tick recomputes it with a full pass.
	barrierReleased bool
	// horizon/horizonAt cache the last NextEvent answer: the SMX provably
	// cannot act on any cycle in [horizonAt, horizon), because nothing an
	// SMX observes changes inside the window — its warps, retiring blocks,
	// and (private) MSHR table only move when it ticks or the engine
	// dispatches onto it, and AddBlockAttr invalidates the cache. TickFF
	// uses the window to elide whole per-cycle ticks on processed cycles
	// that some other component pinned.
	horizon   uint64
	horizonAt uint64
	// freeBlocks / freeWarps recycle retired Block and warp records so
	// steady-state dispatch allocates nothing: sweep pushes a dead block's
	// records here and AddBlockAttr pops (and fully reinitializes) them.
	// Pool sizes are bounded by the SMX's peak residency. A retired Block
	// keeps its fields until the memory is reused by a later dispatch, so
	// a BlockDone observer must copy out anything it needs to keep.
	freeBlocks []*Block
	freeWarps  []*warp
}

// New builds an SMX. nextSeq is a shared dispatch-sequence counter owned by
// the GPU engine so that block ages are globally ordered.
func New(id int, cfg *config.GPU, m *mem.System, ev Events, policy Policy, nextSeq *uint64) *SMX {
	return &SMX{ID: id, cfg: cfg, mem: m, events: ev, policy: policy, nextSeq: nextSeq}
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
	if now < s.nextReady {
		s.nextReady = now
	}
	s.horizon = 0 // new warps can issue this very cycle
	b := s.newBlock()
	b.Prog, b.Owner, b.Seq, b.DispatchCycle, b.TBIndex, b.Tag = tb, owner, *s.nextSeq, now, tbIndex, tag
	*s.nextSeq++
	s.usedThreads += tb.Threads
	s.usedRegs += tb.Registers()
	s.usedShmem += tb.SharedMemBytes
	s.blocks = append(s.blocks, b)
	for i := 0; i < tb.NumWarps(); i++ {
		w := s.newWarp()
		w.block, w.idx, w.readyAt = b, i, now
		if len(w.stream()) == 0 {
			w.done = true
			b.doneWarps++
		}
		b.warps = append(b.warps, w)
		s.warps = append(s.warps, w)
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
// progress on its own: the cached nextReady horizon (the earliest issuable
// non-stalled warp or pending block retirement), lowered to the MSHR stall
// wake-up bound when warps are blocked on a full MSHR table — a stalled
// retry can only advance when the table frees a slot at a known
// fill-completion cycle or, if some stalled warp has not yet observed the
// table's latest add, the cycle after it (mem.NextStallWake covers both).
// Warps stalled on a full launch queue contribute nothing: the queue only
// frees through KMU or TB dispatch, which run on processed cycles of their
// own phases, and TickFF retries the stalled warps on the first processed
// cycle after such a release. It returns ^uint64(0) when the SMX holds no
// work at all, so the engine's fast-forward clock may skip it entirely until
// a dispatch makes it actionable again. Engine-driven changes (AddBlockAttr)
// lower nextReady themselves, so the bound stays valid across skipped spans.
//
// All of this presumes every stalled warp retried on the last processed
// cycle; when the issue scan stopped short (scanShort), a starved warp's
// view of the blocking resource is stale and the next cycle is pinned until
// a full scan restores the invariant.
func (s *SMX) NextEvent(next uint64) uint64 {
	h := s.nextEvent(next)
	s.horizonAt, s.horizon = next, h
	return h
}

func (s *SMX) nextEvent(next uint64) uint64 {
	if len(s.warps) == 0 {
		return ^uint64(0)
	}
	if (s.memStalledWarps > 0 || s.launchStalledWarps > 0) && s.scanShort {
		return next
	}
	h := s.nextReady
	if s.memStalledWarps > 0 {
		if r := s.mem.NextStallWake(s.ID, next, s.minRejectGen); r < h {
			h = r
		}
	}
	if h < next {
		return next
	}
	return h
}

// TickFF is Tick under the fast-forward clock: when the cached NextEvent
// window proves the SMX cannot act at cycle now, the whole tick — including
// the per-cycle issue scan a stalled SMX would otherwise pay — is replaced
// by a one-cycle SkipIdle, whose elided launch retries it returns for the
// engine's launch-backpressure counter (0 after a real Tick, whose retries
// reach the engine through Launch). This is the engine's span-skip argument
// applied to a single SMX on a cycle some other component pinned: inside
// [horizonAt, horizon) the SMX's warps, retiring blocks, and MSHR table
// cannot change except through its own tick or an engine dispatch (which
// invalidates the cache), so every elided MSHR retry would have failed. A
// launch queue can free on this very cycle through the engine's KMU or TB
// dispatch, which the window does not see; but every release bumps
// Events.LaunchFrees, so while it still reads the count of the last full
// Tick, every elided launch retry would have failed too.
func (s *SMX) TickFF(now uint64) (launchRetries uint64) {
	if s.horizonAt <= now && now < s.horizon &&
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
	// Stalled warps retry (and re-fail) every cycle regardless of the
	// ready horizon, so the early return applies only to stall-free SMXs.
	if now < s.nextReady && s.launchStalledWarps == 0 && s.memStalledWarps == 0 {
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
	issued := 0
	s.barrierReleased = false
	wb := wakeBound{next: ^uint64(0), minGen: ^uint64(0)}
	folded := false
	switch s.policy {
	case GTO:
		// Greedy warp first, then oldest (s.warps is in dispatch
		// order). A warp that issues gets readyAt > now, so one pass
		// suffices. The pass visits every warp exactly once, after the
		// greedy attempt, and keeps visiting past the issue width so it
		// can fold each warp into the wake bound once its state for this
		// cycle is final.
		if g := s.greedy; g != nil && g.canIssue(now) && (len(g.pending) == 0 || !s.retryRejected(g, now)) && s.issue(g, now) {
			issued++
		}
		for _, w := range s.warps {
			if issued < s.cfg.IssueWidth && w.canIssue(now) && (len(w.pending) == 0 || !s.retryRejected(w, now)) && s.issue(w, now) {
				issued++
				s.greedy = w
			}
			wb.fold(w)
		}
		folded = true
	case LRR:
		n := len(s.warps)
		for i := 0; i < n && issued < s.cfg.IssueWidth; i++ {
			w := s.warps[(s.rrCursor+i)%n]
			if w.canIssue(now) && (len(w.pending) == 0 || !s.retryRejected(w, now)) && s.issue(w, now) {
				issued++
				s.rrCursor = (s.rrCursor + i + 1) % n
			}
		}
	case TwoLevel:
		n := len(s.warps)
		groups := (n + TwoLevelGroupSize - 1) / TwoLevelGroupSize
		for g := 0; g < groups && issued == 0; g++ {
			gi := (s.activeGroup + g) % groups
			lo := gi * TwoLevelGroupSize
			hi := lo + TwoLevelGroupSize
			if hi > n {
				hi = n
			}
			for i := lo; i < hi && issued < s.cfg.IssueWidth; i++ {
				if w := s.warps[i]; w.canIssue(now) && (len(w.pending) == 0 || !s.retryRejected(w, now)) && s.issue(w, now) {
					issued++
				}
			}
			if issued > 0 {
				s.activeGroup = gi
			}
		}
	}
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
	if s.needSweep {
		s.sweep()
	}
	if s.launchStalledWarps > 0 {
		s.launchSeen = s.events.LaunchFrees()
	}
	// Recompute the next cycle anything can happen: the earliest issuable
	// warp or the earliest pending block retirement (see wakeBound.fold).
	// GTO's scan already folded every warp; the fold is redone over all
	// warps when the scan did not visit each warp exactly once after its
	// last change — LRR and TwoLevel scans, and any scan in which a
	// barrier released warps it had already visited. Warps the sweep just
	// dropped belonged to retired blocks and folded to nothing.
	if !folded || s.barrierReleased {
		wb = wakeBound{next: ^uint64(0), minGen: ^uint64(0)}
		for _, w := range s.warps {
			wb.fold(w)
		}
	}
	s.minRejectGen = wb.minGen
	next := wb.next
	for _, b := range s.retiring {
		if b.retireAt < next {
			next = b.retireAt
		}
	}
	s.nextReady = next
}

// wakeBound accumulates the warp part of an SMX's horizon over one pass.
type wakeBound struct {
	// next is the earliest readyAt of a warp that can issue on its own.
	next uint64
	// minGen is the oldest MSHR generation an MSHR-stalled warp last
	// observed.
	minGen uint64
}

// fold adds warp w to the bound. Warps waiting at a barrier are excluded:
// their release happens inside the tick in which the last live warp
// arrives, which updates readyAt. Stalled warps are excluded too — their
// failed retries re-arm readyAt every cycle and would pin the horizon;
// NextEvent accounts for their actual wake-up sources instead, given the
// oldest MSHR generation any MSHR-stalled warp last observed.
func (b *wakeBound) fold(w *warp) {
	if len(w.pending) > 0 {
		b.minGen = min(b.minGen, w.rejectGen)
	} else if !w.done && !w.atBarrier && !w.launchStalled && w.readyAt < b.next {
		b.next = w.readyAt
	}
}

// retryRejected is the retry proof of an MSHR-stalled warp (one with
// pending lines), run in every policy's scan loop before issue: when
// mem.StillRejected shows the blocked load fails again, the warp records
// exactly a failed retry — it waits a cycle, counts one stall cycle, and has
// rejectGen advanced by the check — and reports true, so the scan skips the
// calls into issue and issueMem. False (the retry may succeed) leaves the
// warp untouched for issue. The loops test len(w.pending) themselves, so a
// warp that is not stalled pays for no call.
func (s *SMX) retryRejected(w *warp, now uint64) bool {
	if !s.mem.StillRejected(s.ID, uint64(w.pending[0])*config.LineSize, &w.rejectGen, now) {
		return false
	}
	w.readyAt = now + 1
	s.stats.MemStallEvents++
	return true
}

// issue executes one instruction (or resumes a stalled memory instruction)
// for warp w and reports whether an instruction issued.
func (s *SMX) issue(w *warp, now uint64) bool {
	if len(w.pending) > 0 {
		return s.issueMem(w, nil, now)
	}
	in := &w.stream()[w.pc]
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
// instruction. in is nil when resuming a stalled instruction.
func (s *SMX) issueMem(w *warp, in *isa.Inst, now uint64) bool {
	wasStalled := in == nil // resuming implies a prior MSHR rejection
	if in != nil {
		w.pending = w.block.Prog.LinesOf(in)
		w.pendingMax = 0
	} else {
		// retryRejected already asked mem.StillRejected: this retry may
		// succeed.
		in = &w.stream()[w.pc]
	}
	isStore := in.Kind == isa.OpStore
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
				}
				w.rejectGen = s.mem.MSHRGen(s.ID)
				w.readyAt = now + 1
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
	}
	w.readyAt = w.pendingMax
	if isStore {
		w.readyAt = now + 1
	}
	s.count(in)
	s.advance(w, now)
	return true
}

func (s *SMX) count(in *isa.Inst) {
	s.stats.WarpInsts++
	s.stats.ThreadInsts += int64(in.ActiveLanes)
}

// advance moves the warp past its current instruction. At stream end the
// warp stops issuing; its block's resources are released only once its last
// instruction completes (w.readyAt), matching hardware block retirement.
func (s *SMX) advance(w *warp, now uint64) {
	w.pc++
	if w.pc < len(w.stream()) {
		return
	}
	w.done = true
	b := w.block
	b.doneWarps++
	if w.readyAt > b.retireAt {
		b.retireAt = w.readyAt
	}
	// A finishing warp may be the last arrival a barrier was waiting on.
	s.releaseBarrier(b, now)
	if b.doneWarps == len(b.warps) && !b.dead {
		if b.retireAt <= now {
			s.retire(b, now)
		} else {
			s.retiring = append(s.retiring, b)
		}
	}
}

// releaseBarrier releases the block's barrier if every live warp has
// arrived.
func (s *SMX) releaseBarrier(b *Block, now uint64) {
	if b.arrived == 0 || b.arrived < len(b.warps)-b.doneWarps {
		return
	}
	b.arrived = 0
	s.barrierReleased = true
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
	return nil
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
// except the caller-assigned identity (block, idx, readyAt) are reset here.
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

// sweep removes dead blocks and their warps from the issue lists and
// recycles their records onto the free pools for the next dispatch.
func (s *SMX) sweep() {
	s.needSweep = false
	warps := s.warps[:0]
	for _, w := range s.warps {
		if !w.block.dead {
			warps = append(warps, w)
		}
	}
	for i := len(warps); i < len(s.warps); i++ {
		s.warps[i] = nil
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
