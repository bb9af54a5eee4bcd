package gpu

// This file is the event-horizon clock: the phase decomposition of the
// engine loop and the fast-forward machinery that advances `now` directly to
// the next cycle on which anything can happen, instead of incrementing by
// one. Fast-forward is the default and is cycle-exact — dense and
// fast-forward runs produce byte-identical Results, traces, and timelines
// (see DESIGN.md §9 for the argument) — with Options.DenseClock as the
// reference escape hatch.

// NoEvent is the NextEvent value of a component with nothing scheduled: it
// never constrains the horizon merge.
const NoEvent = ^uint64(0)

// Clocked is one phase of the engine loop. Every processed cycle runs each
// phase's Tick once, in a fixed order matching the original dense loop
// (arrivals, KMU dispatch, TB dispatch, SMX pipelines, sampler, watchdog).
type Clocked interface {
	// Tick advances the phase at cycle now.
	Tick(now uint64) error
	// NextEvent returns the earliest cycle >= next at which the phase can
	// change simulation state, or NoEvent when it is inert until some
	// other phase acts. The engine processes every cycle up to and
	// including the minimum over all phases, so a phase is never ticked
	// past its own horizon.
	NextEvent(next uint64) uint64
	// Skip accounts an elided idle span of `cycles` cycles, all strictly
	// before every phase's horizon. Phases with per-cycle bookkeeping
	// (resident-cycle counting, elided scheduler polls) bulk-apply it
	// here; pure event-driven phases do nothing.
	Skip(cycles uint64)
}

// IdleAware is an optional TBScheduler extension that lets the fast-forward
// clock elide Select calls on provably idle cycles. A scheduler reports a
// nil-period p >= 1 with the contract: after p consecutive Select calls
// returning nil with no intervening Enqueue, successful dispatch, or
// thread-block retirement, every further Select also returns nil, and the
// only state such a call mutates is reproduced exactly by SkipIdleSelects.
// The round-robin cursors of the binding schedulers make p the SMX count
// (one full fruitless round proves quiescence); the global-queue schedulers
// are idle after a single nil. A period <= 0 opts out, and schedulers that
// do not implement the interface are polled every cycle — fast-forward then
// degrades to dense stepping around them, trading speed for correctness.
type IdleAware interface {
	IdleSelectPeriod() int
	// SkipIdleSelects replays the state effect of n consecutive
	// nil-returning Select calls in O(1).
	SkipIdleSelects(n uint64)
	// SkipEmptySelects replays the state effect of n consecutive Select
	// calls made while the scheduler held no unexhausted instance (every
	// such call is trivially nil, whatever the SMX occupancy). It exists
	// separately from SkipIdleSelects because these calls can be elided
	// without a proving nil round first, so per-slot cleanup a nil round
	// would have completed (AdaptiveBind's backup resets) must be replayed
	// here, in O(SMX count) or better.
	SkipEmptySelects(n uint64)
}

// periodic is the shared period arithmetic of the sampler, watchdog, and
// auditor ticks: fires reproduces the dense loop's `now%every == 0` gate and
// nextAt is its horizon, so a skipped span can never jump over a scheduled
// tick — the two are derived from the same divisor.
type periodic struct{ every uint64 }

// fires reports whether the periodic tick is due at cycle now.
func (p periodic) fires(now uint64) bool {
	return p.every > 0 && now > 0 && now%p.every == 0
}

// nextAt returns the first cycle >= next at which fires is true, or NoEvent
// for a disabled (zero) period.
func (p periodic) nextAt(next uint64) uint64 {
	if p.every == 0 {
		return NoEvent
	}
	if next == 0 {
		return p.every
	}
	if r := next % p.every; r != 0 {
		return next + (p.every - r)
	}
	return next
}

// arrivalsPhase delivers launches whose latency has elapsed. Its horizon is
// the head of the ArriveCycle-sorted arrival queue.
type arrivalsPhase struct{ s *Simulator }

func (p arrivalsPhase) Tick(now uint64) error { p.s.deliverArrivals(); return nil }

func (p arrivalsPhase) NextEvent(next uint64) uint64 {
	ki := p.s.arrivals.peek()
	if ki == nil {
		return NoEvent
	}
	return max(ki.ArriveCycle, next)
}

func (p arrivalsPhase) Skip(uint64) {}

// kmuPhase fills free KDU entries from the KMU queues. kmuDispatch drains
// until the KDU is full or the KMU empty, so after a processed cycle it is
// actionable exactly when kernels are still queued behind a full KDU — and a
// KDU entry can only free through a block retirement, which is inside the
// SMX phase's horizon.
type kmuPhase struct{ s *Simulator }

func (p kmuPhase) Tick(now uint64) error { return p.s.kmuDispatch() }

func (p kmuPhase) NextEvent(next uint64) uint64 {
	s := p.s
	if s.kmuCount > 0 && s.kduUsed < s.cfg.MaxConcurrentKernels {
		return next
	}
	return NoEvent
}

func (p kmuPhase) Skip(uint64) {}

// tbPhase runs the TB scheduler's dispatch slots. With an IdleAware
// scheduler it goes inert once the nil-Select streak proves quiescence;
// elided polls accumulate in pendingIdle and are replayed before the next
// real Select. Without one it is actionable every cycle, pinning the engine
// to dense stepping.
type tbPhase struct{ s *Simulator }

func (p tbPhase) Tick(now uint64) error { return p.s.tbDispatch() }

func (p tbPhase) NextEvent(next uint64) uint64 {
	if p.s.schedQuiesced() {
		return NoEvent
	}
	return next
}

func (p tbPhase) Skip(cycles uint64) {
	if p.s.schedLive == 0 {
		p.s.pendingEmpty += cycles
	} else {
		p.s.pendingIdle += cycles
	}
}

// smxPhase ticks every SMX pipeline. Its horizon is the minimum of the
// per-SMX NextEvent bounds: the earliest issuable warp or pending
// retirement, lowered to the MSHR stall wake when warps are stalled on a
// full MSHR table. Skipped spans, and the single ticks TickFF elides on
// processed cycles, bulk-apply the per-cycle effects a dense tick would have
// had — resident-cycle counting and the once-per-cycle failing retry of
// every stalled warp, whose launch-path share feeds the engine's
// backpressure counter exactly as the elided Launch callbacks would have
// (trace events are per-episode, not per-retry, so none are elided).
type smxPhase struct{ s *Simulator }

func (p smxPhase) Tick(now uint64) error {
	if p.s.ff {
		// Under fast-forward the horizons computed for the last merge also
		// prove, per SMX, that nothing can happen on this processed cycle;
		// TickFF elides those SMXs' ticks entirely (see smx.TickFF).
		for _, x := range p.s.smxs {
			p.s.launchStallCycles += x.TickFF(now)
		}
		return nil
	}
	for _, x := range p.s.smxs {
		x.Tick(now)
	}
	return nil
}

func (p smxPhase) NextEvent(next uint64) uint64 {
	horizon := uint64(NoEvent)
	for _, x := range p.s.smxs {
		if h := x.NextEvent(next); h < horizon {
			horizon = h
		}
	}
	return horizon
}

func (p smxPhase) Skip(cycles uint64) {
	for _, x := range p.s.smxs {
		p.s.launchStallCycles += x.SkipIdle(cycles)
	}
}

// samplerPhase takes timeline samples (and audits, when enabled) at exact
// multiples of SampleEvery, identically under both clocks: its period is a
// horizon source, so no skip can jump over a scheduled sample.
type samplerPhase struct {
	s *Simulator
	periodic
}

func (p samplerPhase) Tick(now uint64) error {
	if !p.fires(now) {
		return nil
	}
	p.s.takeSample()
	if p.s.audit {
		return p.s.runAudit()
	}
	return nil
}

func (p samplerPhase) NextEvent(next uint64) uint64 { return p.nextAt(next) }

func (p samplerPhase) Skip(uint64) {}

// watchdogPhase compares forward-progress snapshots (and audits, when
// enabled) at exact multiples of the watchdog interval, again as a horizon
// source so deadlock detection fires on the same cycle under both clocks.
type watchdogPhase struct {
	s *Simulator
	periodic
}

func (p watchdogPhase) Tick(now uint64) error {
	if !p.fires(now) {
		return nil
	}
	if err := p.s.watchdogCheck(); err != nil {
		return err
	}
	if p.s.audit {
		return p.s.runAudit()
	}
	return nil
}

func (p watchdogPhase) NextEvent(next uint64) uint64 { return p.nextAt(next) }

func (p watchdogPhase) Skip(uint64) {}

// schedQuiesced reports whether the TB scheduler is provably idle: it is
// IdleAware, fast-forwarding is on, and either every instance handed to it
// has been fully dispatched (schedLive == 0 — a Select then has nothing to
// return no matter the SMX state, the common case while dispatched blocks
// execute), or the scheduler has returned nil for a full nil-period of
// consecutive Selects with no intervening enqueue, dispatch, or retirement
// (dirtySched resets the streak on each of those).
func (s *Simulator) schedQuiesced() bool {
	return s.ff && s.idleSched != nil && (s.schedLive == 0 || s.nilStreak >= s.idlePeriod)
}

// dirtySched notes a dispatch-state change the TB scheduler can observe — a
// newly enqueued kernel, a successful dispatch, or a retirement freeing SMX
// resources — invalidating the nil-Select streak.
func (s *Simulator) dirtySched() { s.nilStreak = 0 }

// phases builds the engine's phase list in dense-loop order. New calls it
// once (into phaseList) so the per-run path allocates nothing for phases.
func (s *Simulator) phases() []Clocked {
	return []Clocked{
		arrivalsPhase{s},
		kmuPhase{s},
		tbPhase{s},
		smxPhase{s},
		samplerPhase{s, periodic{s.sampleEvery}},
		watchdogPhase{s, periodic{s.watchdogEvery}},
	}
}
