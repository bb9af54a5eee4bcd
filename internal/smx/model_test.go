package smx

// The differential oracle for the issue scan: modelSMX is a per-warp scan
// with no proofs. Every tick it visits the resident warps one by one in the
// policy's order, asks each whether it can issue, retries a stalled warp's
// load with a real mem.LoadAs, and recomputes the horizon with a full pass
// over the warps. It shares the SMX's retirement rule (a block retires
// exactly once) and nothing else, so matching it shows every retry the SMX
// proves would have failed (mem.Rejected, mem.AllRejected) and every
// horizon it caches is the one a full pass finds.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

type modelWarp struct {
	readyAt       uint64
	pending       []uint32
	rejectGen     uint64
	atBarrier     bool
	done          bool
	launchStalled bool
	block         *modelBlock
	insts         []isa.Inst
	pc            int
	pendingMax    uint64
}

func (w *modelWarp) canIssue(now uint64) bool {
	return !w.done && !w.atBarrier && w.readyAt <= now
}

type modelBlock struct {
	b         *Block // the handle passed to Events; only Prog and Seq are set
	warps     []*modelWarp
	arrived   int
	doneWarps int
	retireAt  uint64
	dead      bool
}

type modelSMX struct {
	id     int
	cfg    *config.GPU
	mem    *mem.System
	events Events
	policy Policy

	blocks   []*modelBlock
	warps    []*modelWarp
	retiring []*modelBlock

	greedy             *modelWarp
	rrCursor           int
	activeGroup        int
	stats              Stats
	needSweep          bool
	nextReady          uint64
	horizon            uint64
	launchStalledWarps int
	memStalledWarps    int
	scanShort          bool
}

func newModelSMX(id int, cfg *config.GPU, m *mem.System, ev Events, policy Policy) *modelSMX {
	return &modelSMX{id: id, cfg: cfg, mem: m, events: ev, policy: policy}
}

func (s *modelSMX) addBlock(tb *isa.TB, seq, now uint64) {
	s.nextReady = min(s.nextReady, now)
	b := &modelBlock{b: &Block{Prog: tb, Seq: seq, TBIndex: -1, Tag: mem.NoAccessor}}
	s.blocks = append(s.blocks, b)
	for i := range tb.Warps {
		w := &modelWarp{block: b, insts: tb.Warps[i], readyAt: now}
		if len(w.insts) == 0 {
			w.done = true
			b.doneWarps++
		}
		b.warps = append(b.warps, w)
		s.warps = append(s.warps, w)
	}
	if b.doneWarps == len(b.warps) {
		s.retire(b, now)
		s.sweep()
	}
}

func (s *modelSMX) tick(now uint64) {
	if len(s.warps) == 0 {
		return
	}
	s.stats.ResidentCycles++
	if now < s.nextReady && s.launchStalledWarps == 0 && s.memStalledWarps == 0 {
		return
	}
	keep := s.retiring[:0]
	for _, b := range s.retiring {
		if b.retireAt <= now {
			s.retire(b, now)
		} else {
			keep = append(keep, b)
		}
	}
	s.retiring = keep
	try := func(w *modelWarp) bool {
		return w.canIssue(now) && s.issue(w, now)
	}
	issued := 0
	switch s.policy {
	case GTO:
		if g := s.greedy; g != nil && try(g) {
			issued++
		}
		for _, w := range s.warps {
			if issued < s.cfg.IssueWidth && try(w) {
				issued++
				s.greedy = w
			}
		}
	case LRR:
		n := len(s.warps)
		for i := 0; i < n && issued < s.cfg.IssueWidth; i++ {
			if try(s.warps[(s.rrCursor+i)%n]) {
				issued++
				s.rrCursor = (s.rrCursor + i + 1) % n
			}
		}
	case TwoLevel:
		n := len(s.warps)
		groups := (n + TwoLevelGroupSize - 1) / TwoLevelGroupSize
		for g := 0; g < groups && issued == 0; g++ {
			gi := (s.activeGroup + g) % groups
			for i := gi * TwoLevelGroupSize; i < min(gi*TwoLevelGroupSize+TwoLevelGroupSize, n) && issued < s.cfg.IssueWidth; i++ {
				if try(s.warps[i]) {
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
	if s.policy == TwoLevel {
		s.scanShort = issued > 0
	} else {
		s.scanShort = issued >= s.cfg.IssueWidth
	}
	if s.needSweep {
		s.sweep()
	}
	next, minGen := ^uint64(0), ^uint64(0)
	for _, w := range s.warps {
		if len(w.pending) > 0 {
			minGen = min(minGen, w.rejectGen)
		} else if !w.done && !w.atBarrier && !w.launchStalled {
			next = min(next, w.readyAt)
		}
	}
	for _, b := range s.retiring {
		next = min(next, b.retireAt)
	}
	s.nextReady = next
	// The horizon: the next cycle, while a scan that stopped short left
	// stalled warps; else the earliest issuable warp or retirement, lowered
	// to the MSHR stall wake when loads are stalled.
	after := now + 1
	switch {
	case (s.memStalledWarps > 0 || s.launchStalledWarps > 0) && s.scanShort:
		s.horizon = after
	case s.memStalledWarps > 0:
		s.horizon = max(min(next, s.mem.NextStallWake(s.id, after, minGen)), after)
	default:
		s.horizon = max(next, after)
	}
}

// nextEvent is SMX.NextEvent on the model's horizon.
func (s *modelSMX) nextEvent(next uint64) uint64 {
	if len(s.warps) == 0 {
		return ^uint64(0)
	}
	return max(s.horizon, next)
}

func (s *modelSMX) issue(w *modelWarp, now uint64) bool {
	if len(w.pending) > 0 {
		return s.issueMem(w, nil, now)
	}
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
		prog := w.block.b.Prog
		if !s.events.Launch(s.id, w.block.b, prog.Launches[in.Arg], now, w.launchStalled) {
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
	panic(fmt.Sprintf("model: unknown op kind %v", in.Kind))
}

func (s *modelSMX) issueMem(w *modelWarp, in *isa.Inst, now uint64) bool {
	wasStalled := in == nil
	if in != nil {
		w.pending = w.block.b.Prog.LinesOf(in)
		w.pendingMax = 0
	} else {
		in = &w.insts[w.pc]
	}
	isStore := in.Kind == isa.OpStore
	for len(w.pending) > 0 {
		line := uint64(w.pending[0]) * config.LineSize
		var done uint64
		if isStore {
			s.mem.StoreAs(s.id, line, now, w.block.b.Tag)
			done = now + 1
		} else {
			var ok bool
			done, ok = s.mem.LoadAs(s.id, line, now, w.block.b.Tag)
			if !ok {
				if !wasStalled {
					s.memStalledWarps++
				}
				_, w.rejectGen = s.mem.MSHRState(s.id, now)
				w.readyAt = now + 1
				s.stats.MemStallEvents++
				return false
			}
		}
		w.pendingMax = max(w.pendingMax, done)
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

func (s *modelSMX) count(in *isa.Inst) {
	s.stats.WarpInsts++
	s.stats.ThreadInsts += int64(in.ActiveLanes)
}

func (s *modelSMX) advance(w *modelWarp, now uint64) {
	w.pc++
	if w.pc < len(w.insts) {
		return
	}
	w.done = true
	b := w.block
	b.doneWarps++
	b.retireAt = max(b.retireAt, w.readyAt)
	if b.doneWarps == len(b.warps) {
		if b.retireAt <= now {
			s.retire(b, now)
		} else {
			s.retiring = append(s.retiring, b)
		}
		return
	}
	s.releaseBarrier(b, now)
}

func (s *modelSMX) releaseBarrier(b *modelBlock, now uint64) {
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

func (s *modelSMX) retire(b *modelBlock, now uint64) {
	b.dead = true
	s.stats.BlocksCompleted++
	s.needSweep = true
	s.events.BlockDone(s.id, b.b, now)
}

func (s *modelSMX) sweep() {
	s.needSweep = false
	s.warps = slices.DeleteFunc(s.warps, func(w *modelWarp) bool { return w.block.dead })
	s.blocks = slices.DeleteFunc(s.blocks, func(b *modelBlock) bool { return b.dead })
	if s.greedy != nil && s.greedy.block.dead {
		s.greedy = nil
	}
	if s.rrCursor >= len(s.warps) {
		s.rrCursor = 0
	}
}

// eventLog records an SMX's Events calls as text, in order, behind a
// launch queue that opens and closes with gate.
type eventLog struct {
	gate *gateEvents
	log  []string
}

func (e *eventLog) Launch(smxID int, b *Block, child *isa.Kernel, now uint64, retry bool) bool {
	ok := e.gate.Launch(smxID, b, child, now, retry)
	e.log = append(e.log, fmt.Sprintf("launch smx %d block %d cycle %d retry %t ok %t", smxID, b.Seq, now, retry, ok))
	return ok
}

func (e *eventLog) LaunchFrees() uint64 { return e.gate.LaunchFrees() }

func (e *eventLog) BlockDone(smxID int, b *Block, now uint64) {
	e.log = append(e.log, fmt.Sprintf("done smx %d block %d cycle %d", smxID, b.Seq, now))
}

// compareWithModel reports the first difference between the SMX and the
// model after a tick at cycle now: statistics, horizon, scan-short flag,
// policy cursors, and every resident warp's execution state. A stalled
// warp's readyAt is not compared: the SMX does not rewrite it on each failed
// retry.
func compareWithModel(s *SMX, m *modelSMX, now uint64) error {
	if s.stats != m.stats {
		return fmt.Errorf("stats %+v, model %+v", s.stats, m.stats)
	}
	if h, mh := s.NextEvent(now+1), m.nextEvent(now+1); h != mh || s.scanShort != m.scanShort {
		return fmt.Errorf("horizon %d scanShort %t, model %d %t", h, s.scanShort, mh, m.scanShort)
	}
	if s.memStalledWarps != m.memStalledWarps || s.launchStalledWarps != m.launchStalledWarps {
		return fmt.Errorf("stalled warps (mem %d, launch %d), model (%d, %d)",
			s.memStalledWarps, s.launchStalledWarps, m.memStalledWarps, m.launchStalledWarps)
	}
	if s.rrCursor != m.rrCursor || s.activeGroup != m.activeGroup {
		return fmt.Errorf("rrCursor %d activeGroup %d, model %d %d", s.rrCursor, s.activeGroup, m.rrCursor, m.activeGroup)
	}
	if len(s.blocks) != len(m.blocks) || len(s.warps) != len(m.warps) || len(s.retiring) != len(m.retiring) {
		return fmt.Errorf("%d blocks, %d warps, %d retiring; model %d, %d, %d",
			len(s.blocks), len(s.warps), len(s.retiring), len(m.blocks), len(m.warps), len(m.retiring))
	}
	if (s.greedy == nil) != (m.greedy == nil) || s.greedy != nil && s.greedy.pos != slices.Index(m.warps, m.greedy) {
		return fmt.Errorf("greedy warp differs from the model's")
	}
	for i, w := range s.warps {
		mw := m.warps[i]
		if w.block.Seq != mw.block.b.Seq || w.pc != mw.pc || !slices.Equal(w.pending, mw.pending) ||
			w.done != mw.done || w.atBarrier != mw.atBarrier || w.launchStalled != mw.launchStalled ||
			len(w.pending) == 0 && w.readyAt != mw.readyAt {
			return fmt.Errorf("warp %d (block %d): pc %d pending %v done %t barrier %t launch-stalled %t readyAt %d; "+
				"model block %d: %d %v %t %t %t %d", i, w.block.Seq, w.pc, w.pending, w.done, w.atBarrier, w.launchStalled, w.readyAt,
				mw.block.b.Seq, mw.pc, mw.pending, mw.done, mw.atBarrier, mw.launchStalled, mw.readyAt)
		}
	}
	for i, b := range s.retiring {
		if b.Seq != m.retiring[i].b.Seq || b.retireAt != m.retiring[i].retireAt {
			return fmt.Errorf("retiring block %d: seq %d at %d, model %d at %d", i, b.Seq, b.retireAt, m.retiring[i].b.Seq, m.retiring[i].retireAt)
		}
	}
	return nil
}

// FuzzIssueScanMatchesModel drives twin machines — SMXs and per-warp model
// SMXs, each on its own memory system — with one stream of randomTB blocks
// on a two-entry MSHR table, under every warp policy, with private L1s or
// two SMXs sharing one, behind a launch queue that opens and closes at
// random. After every tick each SMX must match its model (compareWithModel),
// pass CheckInvariants, and leave its memory system in the model's state;
// the Events sequences must be identical. The issue order within a tick is
// pinned by its effects: GTO's greedy pick, LRR's cursor, TwoLevel's active
// group, the launch sequence, and each load's completion cycle, which
// depends on the order of the requests ahead of it at the L2 and DRAM.
func FuzzIssueScanMatchesModel(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		for policy := byte(0); policy < 3; policy++ {
			f.Add(seed, policy, policy%2 == 0)
		}
	}
	child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(1).Build()).Build()
	f.Fuzz(func(t *testing.T, seed int64, policyByte byte, cluster bool) {
		policy := Policy(policyByte % 3)
		rng := rand.New(rand.NewSource(seed))
		cfg := config.SmallTest()
		cfg.L1MSHRs = 2
		nSMX := 1
		if cluster {
			cfg.SMXsPerCluster, nSMX = 2, 2
		}
		sysS, sysM := mem.NewSystem(&cfg), mem.NewSystem(&cfg)
		gate := &gateEvents{closed: true}
		evS, evM := &eventLog{gate: gate}, &eventLog{gate: gate}
		var seq uint64
		smxs, models := make([]*SMX, nSMX), make([]*modelSMX, nSMX)
		for i := range smxs {
			smxs[i] = New(i, &cfg, sysS, evS, policy, &seq)
			models[i] = newModelSMX(i, &cfg, sysM, evM, policy)
		}
		pending := 30
		for now := uint64(0); now < 1<<20; now++ {
			if rng.Intn(30) == 0 {
				if gate.closed = !gate.closed; !gate.closed {
					gate.frees++
				}
			}
			for i, s := range smxs {
				for pending > 0 && rng.Intn(4) == 0 {
					tb := randomTB(rng, child)
					if !s.CanFit(tb) {
						break
					}
					models[i].addBlock(tb, seq, now)
					s.AddBlock(tb, nil, now)
					pending--
				}
			}
			idle := pending == 0
			for i, s := range smxs {
				s.Tick(now)
				models[i].tick(now)
				if err := compareWithModel(s, models[i], now); err != nil {
					t.Fatalf("%s cycle %d smx %d: %v", policy, now, i, err)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%s cycle %d: %v", policy, now, err)
				}
				_, gen := sysS.MSHRState(i, now)
				_, mgen := sysM.MSHRState(i, now)
				if gen != mgen || sysS.L1Stats(i) != sysM.L1Stats(i) {
					t.Fatalf("%s cycle %d smx %d: MSHR gen %d, L1 %v; model %d, %v", policy, now, i,
						gen, sysS.L1Stats(i), mgen, sysM.L1Stats(i))
				}
				idle = idle && s.Idle()
			}
			if err := checkStalls(smxs); err != nil {
				t.Fatalf("%s cycle %d: %v", policy, now, err)
			}
			if sysS.L2Total() != sysM.L2Total() || sysS.DRAMTransactions() != sysM.DRAMTransactions() || sysS.StoreCount() != sysM.StoreCount() {
				t.Fatalf("%s cycle %d: L2 %v, DRAM %d, stores %d; model %v, %d, %d", policy, now,
					sysS.L2Total(), sysS.DRAMTransactions(), sysS.StoreCount(), sysM.L2Total(), sysM.DRAMTransactions(), sysM.StoreCount())
			}
			if !slices.Equal(evS.log, evM.log) {
				t.Fatalf("%s cycle %d: events diverge from the model's:\n%v\nmodel:\n%v", policy, now, evS.log, evM.log)
			}
			evS.log, evM.log = evS.log[:0], evM.log[:0]
			if idle {
				return
			}
		}
		t.Fatalf("work left after %d cycles", 1<<20)
	})
}
