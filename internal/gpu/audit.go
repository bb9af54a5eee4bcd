package gpu

import "fmt"

// The invariant auditor. With Options.Audit set, the engine validates its
// resource accounting against a recomputation from first principles at
// every sample and watchdog tick and once at completion, replacing the old
// scattered panic()-style checks with a structured *InvariantError that
// carries a state dump. The checks cover:
//
//   - per-SMX occupancy (threads, registers, shared memory, TB slots,
//     warp lists) and issue-scan state via smx.CheckInvariants;
//   - each MSHR table's stall bookkeeping (bucket stamps, and watch counts
//     vs the stalled warps of every SMX it serves) via mem.CheckMSHRs —
//     a table can span a cluster, so this check sits here;
//   - KMU queue counters vs the actual queue contents;
//   - KDU entry accounting vs the set of incomplete KDU kernels;
//   - the live-kernel count vs the instance list;
//   - bounded launch-pool occupancy (KMU pending pool, the model's direct
//     pool) vs the per-instance entry flags, and their capacities;
//   - per-instance TB counters (dispatched/done vs grid size).

// invariant wraps a failed check into an *InvariantError with the engine
// state dump attached.
func (s *Simulator) invariant(check, detail string) error {
	return &InvariantError{
		Cycle:  s.now,
		Check:  check,
		Detail: detail,
		State:  s.stateDump(),
	}
}

// stateDump summarises the engine counters on one line.
func (s *Simulator) stateDump() string {
	resident := 0
	for _, x := range s.smxs {
		resident += x.ResidentBlocks()
	}
	pool := s.path.Queue
	if pool == "" { // KMU-only model: no direct pool to name
		pool = "direct"
	}
	return fmt.Sprintf("cycle=%d live=%d kernels=%d arrivals=%d kmuCount=%d kduUsed=%d kmuPool=%d/%d %s=%d/%d residentTBs=%d",
		s.now, s.live, s.nextID, s.pendingArrivals(), s.kmuCount, s.kduUsed,
		s.kmuInFlight, s.cfg.KMUPendingCapacity, pool, s.aggUsed, s.path.Capacity, resident)
}

// runAudit validates every engine invariant, returning an *InvariantError
// describing the first violation.
func (s *Simulator) runAudit() error {
	stalled := make([][]uint32, len(s.smxs))
	for i, x := range s.smxs {
		if err := x.CheckInvariants(); err != nil {
			return s.invariant("smx-occupancy", err.Error())
		}
		stalled[i] = x.StalledLines()
	}
	if err := s.memsys.CheckMSHRs(stalled); err != nil {
		return s.invariant("mshr-stalls", err.Error())
	}

	queued := 0
	for p := range s.kmuQueue {
		queued += s.kmuQueue[p].len()
	}
	if queued != s.kmuCount {
		return s.invariant("kmu-count",
			fmt.Sprintf("kmuCount %d but queues hold %d", s.kmuCount, queued))
	}

	var live, kdu, poolKMU, poolAgg, schedLive int
	for id := 0; id < s.nextID; id++ {
		ki := s.instance(id)
		if ki.enqueued && !ki.Exhausted() {
			schedLive++
		}
		if ki.NextTB < 0 || ki.NextTB > len(ki.Prog.TBs) {
			return s.invariant("tb-cursor",
				fmt.Sprintf("kernel %d NextTB %d of %d TBs", ki.ID, ki.NextTB, len(ki.Prog.TBs)))
		}
		if ki.DoneTBs < 0 || ki.DoneTBs > ki.NextTB {
			return s.invariant("tb-done",
				fmt.Sprintf("kernel %d DoneTBs %d exceeds dispatched %d", ki.ID, ki.DoneTBs, ki.NextTB))
		}
		if !ki.Complete() {
			live++
			if ki.usesKDU {
				kdu++
			}
		}
		if ki.poolKMU {
			poolKMU++
		}
		if ki.poolAgg {
			poolAgg++
		}
	}
	if schedLive != s.schedLive {
		return s.invariant("sched-live",
			fmt.Sprintf("schedLive counter %d but %d enqueued instances are unexhausted", s.schedLive, schedLive))
	}
	if live != s.live {
		return s.invariant("live-count",
			fmt.Sprintf("live counter %d but %d instances incomplete", s.live, live))
	}
	if kdu != s.kduUsed {
		return s.invariant("kdu-count",
			fmt.Sprintf("kduUsed %d but %d incomplete kernels hold KDU entries", s.kduUsed, kdu))
	}
	if s.kduUsed > s.cfg.MaxConcurrentKernels {
		return s.invariant("kdu-capacity",
			fmt.Sprintf("kduUsed %d exceeds the %d KDU entries", s.kduUsed, s.cfg.MaxConcurrentKernels))
	}
	if poolKMU != s.kmuInFlight {
		return s.invariant("kmu-pool",
			fmt.Sprintf("kmuInFlight %d but %d instances hold pool entries", s.kmuInFlight, poolKMU))
	}
	if poolAgg != s.aggUsed {
		return s.invariant("agg-pool",
			fmt.Sprintf("aggUsed %d but %d instances hold buffer entries", s.aggUsed, poolAgg))
	}
	if c := s.cfg.KMUPendingCapacity; c > 0 && s.kmuInFlight > c {
		return s.invariant("kmu-pool-capacity",
			fmt.Sprintf("kmuInFlight %d exceeds capacity %d", s.kmuInFlight, c))
	}
	if c := s.path.Capacity; s.path.Direct && c > 0 && s.aggUsed > c {
		return s.invariant("agg-pool-capacity",
			fmt.Sprintf("%s pool holds %d entries, exceeds capacity %d", s.path.Queue, s.aggUsed, c))
	}
	return nil
}
