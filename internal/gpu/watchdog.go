package gpu

import "laperm/internal/faults"

// The forward-progress watchdog. Every WatchdogInterval cycles the engine
// snapshots a progress vector — everything that changes when the machine
// does useful work — and compares it with the previous snapshot. Live work
// with an unchanged vector means no arrival was delivered, no kernel moved
// into the KDU, no thread block dispatched or retired, no instruction
// issued, and no memory transaction completed for the whole window: a
// scheduling deadlock. Run then returns a *DeadlockError naming the stuck
// kernels instead of spinning to MaxCycles.
//
// Launch-stall retries and MSHR-stall retries deliberately do not count as
// progress: a machine where every warp is stalled on a full launch queue is
// exactly the deadlock this watchdog exists to catch.

// progressVec is everything that advances when the simulation does.
type progressVec struct {
	launched      int    // kernel instances created
	delivered     uint64 // arrivals handed to KMU/scheduler
	kduFilled     uint64 // KMU -> KDU moves
	tbsDispatched uint64 // thread blocks placed on SMXs
	blocksRetired int    // thread blocks retired
	live          int    // incomplete kernels (completion is progress)
	threadInsts   int64  // instructions issued
	memAccesses   int64  // L1 accesses (loads + stores)
	dramTrans     int64  // off-chip transactions
}

func (s *Simulator) progress() progressVec {
	v := progressVec{
		launched:      s.nextID,
		delivered:     s.delivered,
		kduFilled:     s.kduFilled,
		tbsDispatched: s.tbsDispatched,
		live:          s.live,
		dramTrans:     s.memsys.DRAMTransactions(),
	}
	for _, x := range s.smxs {
		st := x.Stats()
		v.blocksRetired += st.BlocksCompleted
		v.threadInsts += st.ThreadInsts
	}
	l1 := s.memsys.L1Total()
	v.memAccesses = l1.Accesses
	return v
}

// watchdogCheck compares the current progress vector with the previous
// snapshot and returns a *DeadlockError when a full window passed without
// progress. Two guards keep short watchdog intervals safe: pending arrivals
// always imply future progress (they deliver at a fixed cycle), and an SMX
// with self-advancing work (a warp waiting out a compute or memory latency
// longer than the window) will progress without outside help. Neither guard
// covers warps stalled at a launch — those need the engine to free a queue
// entry, which is exactly the dependency a deadlock breaks.
func (s *Simulator) watchdogCheck() error {
	if err := s.flts.Hit(faults.SiteGPUWatchdog); err != nil {
		return err
	}
	cur := s.progress()
	prev := s.lastProgress
	s.lastProgress = cur
	if cur != prev || s.done() || s.pendingArrivals() > 0 {
		return nil
	}
	for _, x := range s.smxs {
		if x.PendingWork() {
			return nil
		}
	}
	return s.deadlockError()
}

// deadlockError builds the structured deadlock report.
func (s *Simulator) deadlockError() *DeadlockError {
	e := &DeadlockError{
		Cycle:       s.now,
		Window:      s.watchdogEvery,
		Live:        s.live,
		KMUQueued:   s.kmuCount,
		KDUUsed:     s.kduUsed,
		QueueDepths: make([]int, len(s.kmuQueue)),
	}
	for p := range s.kmuQueue {
		e.QueueDepths[p] = s.kmuQueue[p].len()
	}
	const maxListed = 16
	for id := 0; id < s.nextID; id++ {
		ki := s.instance(id)
		if ki.Complete() {
			continue
		}
		e.TotalStuck++
		if len(e.Stuck) >= maxListed {
			continue
		}
		e.Stuck = append(e.Stuck, StuckKernel{
			ID:         ki.ID,
			Name:       ki.Prog.Name,
			Priority:   ki.Priority,
			BoundSMX:   ki.BoundSMX,
			Dispatched: ki.NextTB,
			Done:       ki.DoneTBs,
			Total:      len(ki.Prog.TBs),
			Where:      s.locate(ki),
		})
	}
	return e
}

// locate classifies where on the launch path an incomplete instance sits.
func (s *Simulator) locate(ki *KernelInstance) string {
	switch {
	case ki.ArriveCycle > s.now:
		return "in-flight"
	case ki.viaKMU && !ki.usesKDU:
		return "kmu"
	case !ki.dispatchedAny:
		return "distributor"
	case !ki.Exhausted():
		return "partially-dispatched"
	default:
		return "executing"
	}
}
