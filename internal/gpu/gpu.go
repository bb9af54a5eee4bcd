// Package gpu is the top level of the simulator: the Kernel Management Unit
// (KMU), the 32-entry Kernel Distributor Unit (KDU), the device-side launch
// paths of both dynamic-parallelism models (CDP device kernels and DTBL
// thread-block groups), the per-cycle engine loop, and the dispatcher
// contract the TB schedulers in internal/core implement.
//
// Figure 1 of the paper is the blueprint: host kernels enter the KMU; the
// KMU fills the KDU subject to its entry limit; the SMX scheduler (a
// TBScheduler implementation) dispatches thread blocks from KDU kernels to
// the SMXs; each SMX can issue new launches back to the KMU (CDP) or
// coalesce TB groups straight onto the distributor (DTBL).
//
// The engine is hardened for long unattended runs: the device launch paths
// have finite capacities with warp-level backpressure (config
// KMUPendingCapacity / DTBLAggBufferEntries), a forward-progress watchdog
// turns scheduling deadlocks into a structured *DeadlockError instead of
// spinning to MaxCycles, and an optional invariant auditor (Options.Audit)
// validates resource accounting during the run. See errors.go for the
// error taxonomy.
package gpu

import (
	"context"
	"fmt"
	"time"

	"laperm/internal/config"
	"laperm/internal/faults"
	"laperm/internal/isa"
	"laperm/internal/mem"
	"laperm/internal/smx"
)

// KernelInstance is one running (or pending) grid: a host-launched kernel,
// a CDP device kernel, or a DTBL thread-block group.
//
// A *KernelInstance is valid only until the RunContext of its run returns.
// The records live in the simulator's engine, which RunContext blanks and
// hands on to a later run (engine.go), so an observer that needs an
// instance after the run copies out what it needs from inside a trace hook;
// Options.TraceKernel delivers every instance once at the end of the run.
type KernelInstance struct {
	// ID is unique per simulation, in creation order: the instance's index
	// in its run.
	ID int
	// Prog is the grid's program.
	Prog *isa.Kernel
	// Priority is the LaPerm priority: 0 for host kernels, parent+1
	// (clamped to the configured maximum level) for dynamic launches.
	Priority int
	// BoundSMX is the SMX that executed the direct parent thread block,
	// or -1 for host-launched kernels. The SMX-binding policies dispatch
	// the instance's TBs there.
	BoundSMX int
	// Parent is the launching kernel instance (nil for host kernels).
	Parent *KernelInstance

	// NextTB indexes the next thread block to dispatch; the instance is
	// exhausted when NextTB reaches len(Prog.TBs).
	NextTB int
	// DoneTBs counts completed thread blocks.
	DoneTBs int

	// LaunchCycle is when the launch instruction executed (0 for host).
	LaunchCycle uint64
	// ArriveCycle is when the instance became visible to the KMU (CDP)
	// or the TB scheduler (DTBL), i.e. LaunchCycle plus launch latency.
	ArriveCycle uint64
	// FirstDispatchCycle and CompleteCycle bracket execution (valid once
	// dispatched / completed).
	FirstDispatchCycle uint64
	CompleteCycle      uint64

	dispatchedAny bool
	usesKDU       bool
	// enqueued marks the instance as handed to the TB scheduler; together
	// with Exhausted it drives the engine's schedLive count.
	enqueued bool
	// viaKMU routes the arrival: true for host kernels, children of
	// KMU-path models (CDP), and direct-path children demoted to the KMU
	// by an OverflowToKMU launch path.
	viaKMU bool
	// poolKMU / poolAgg mark a held entry in the bounded KMU pending
	// pool / direct launch pool (the DTBL aggregation buffer or the PMK
	// task queue).
	poolKMU bool
	poolAgg bool
}

// Exhausted reports whether every thread block has been dispatched.
func (k *KernelInstance) Exhausted() bool { return k.NextTB >= len(k.Prog.TBs) }

// PeekTB returns the next thread block to dispatch. It panics if the
// instance is exhausted.
func (k *KernelInstance) PeekTB() *isa.TB { return k.Prog.TBs[k.NextTB] }

// Complete reports whether every thread block has finished execution.
func (k *KernelInstance) Complete() bool { return k.DoneTBs >= len(k.Prog.TBs) }

// Dispatcher is the engine view a TBScheduler uses to place thread blocks.
type Dispatcher interface {
	// NumSMX returns the SMX count.
	NumSMX() int
	// CanFit reports whether the thread block currently fits on the SMX.
	CanFit(smxID int, tb *isa.TB) bool
	// ResidentTBs returns the number of thread blocks currently resident
	// on the SMX (for contention-aware policies).
	ResidentTBs(smxID int) int
	// Cycle returns the current cycle.
	Cycle() uint64
}

// TBScheduler is the SMX scheduler of Figure 1: the policy that decides,
// each dispatch slot, which kernel's next thread block runs on which SMX.
// Implementations live in internal/core: TBPri (rr is its one-level
// preset), AdaptiveBind (smx-bind is its no-backup preset), WorkSteal, and
// the Throttled wrapper around any of them.
//
// Contract: Enqueue is called once per kernel instance when it becomes
// dispatchable. Select returns an instance with Exhausted() == false and an
// SMX for which CanFit(smx, instance.PeekTB()) is true, or (nil, 0) when
// nothing can dispatch this slot. The engine advances NextTB after a
// successful Select; schedulers drop exhausted instances lazily.
type TBScheduler interface {
	Name() string
	Enqueue(k *KernelInstance)
	Select(d Dispatcher) (*KernelInstance, int)
}

// QueueEventKind labels a backpressure episode on the device launch path.
type QueueEventKind int

const (
	// QueueStall: a warp's launch found its queue full and stalled (one
	// event per episode, not per retry cycle).
	QueueStall QueueEventKind = iota
	// QueueOverflow: a direct-path launch found its pool full and was
	// demoted to the KMU path (an OverflowToKMU launch path, e.g. DTBL
	// under DropToKMU).
	QueueOverflow
)

// QueueEvent describes one backpressure episode for Options.TraceQueue.
type QueueEvent struct {
	Kind  QueueEventKind
	Cycle uint64
	// SMX is the launching SMX; Parent the launching instance (valid only
	// during the hook call); Child the grid whose launch stalled or
	// overflowed.
	SMX    int
	Parent *KernelInstance
	Child  *isa.Kernel
	// Queue names the full queue: "kmu" for the KMU pending pool, or the
	// model's direct-pool name ("agg" for DTBL, "taskq" for PMK).
	Queue string
}

// Options configures a Simulator.
type Options struct {
	Config    *config.GPU
	Scheduler TBScheduler
	Model     Model
	// WarpPolicy defaults to GTO (Table I).
	WarpPolicy smx.Policy
	// MaxCycles bounds Run; 0 means the DefaultMaxCycles safety net.
	MaxCycles uint64
	// TraceDispatch, when non-nil, observes every thread-block dispatch:
	// the kernel instance, the TB index within it, the target SMX, and
	// the cycle. Tests and the footprint analyses use it.
	TraceDispatch func(ki *KernelInstance, tbIndex, smxID int, cycle uint64)
	// TraceQueue, when non-nil, observes launch-queue backpressure
	// episodes (stalls and overflows).
	TraceQueue func(ev QueueEvent)
	// TraceBlockDone, when non-nil, observes every thread-block
	// retirement: the kernel instance, the TB index within it, the SMX it
	// ran on, and the cycles bracketing its residency.
	TraceBlockDone func(ki *KernelInstance, tbIndex, smxID int, dispatchCycle, cycle uint64)
	// TraceSample, when non-nil, observes every timeline Sample as it is
	// taken (requires SampleEvery). Trace recorders use it to build
	// counter tracks.
	TraceSample func(s Sample)
	// TraceKernel, when non-nil, observes every kernel instance of the run
	// once, in ID order, when the run ends — however it ends, after result
	// assembly — with the run's final cycle. It is the one way to read an
	// instance after the engine loop stops: the instance is valid only for
	// the call. Trace recorders and the child-latency analysis use it.
	TraceKernel func(ki *KernelInstance, end uint64)
	// SampleEvery, when non-zero, records a timeline Sample (windowed
	// IPC, cache hit rates, occupancy, queue depths, stall counters)
	// every that many cycles into Result.Timeline.
	SampleEvery uint64
	// Attribution enables reuse-tagged cache accounting: every L1/L2
	// line remembers the kernel instance that installed it and every hit
	// is classified self / parent-child / sibling / cross into
	// Result.L1Reuse and Result.L2Reuse. Off (the default), the tagged
	// paths are inert and cost nothing.
	Attribution bool
	// WatchdogInterval is how often the forward-progress watchdog
	// compares progress snapshots; 0 means DefaultWatchdogInterval. Set
	// NoWatchdog to disable it entirely.
	WatchdogInterval uint64
	NoWatchdog       bool
	// Audit enables the invariant auditor: resource accounting, queue
	// counters, and live-kernel bookkeeping are validated at every
	// sample and watchdog tick (and once at completion), and Run returns
	// an *InvariantError on the first violation.
	Audit bool
	// DenseClock disables event-horizon fast-forwarding and steps the
	// engine one cycle at a time, the original reference behaviour. The
	// two clockings are cycle-exact — Results, traces, and timelines are
	// byte-identical (see DESIGN.md §9) — so this exists as a
	// differential-testing oracle and debugging escape hatch, not a
	// fidelity knob.
	DenseClock bool
	// Faults, when non-nil, arms deterministic failure injection at the
	// engine's failpoint sites (faults.SiteGPURunPoll at the throttled
	// cancellation poll, faults.SiteGPUWatchdog at each watchdog check).
	// Nil — the default — keeps every site zero-cost.
	Faults *faults.Registry
	// TraceSpan, when non-nil, observes the run's coarse wall-clock phases
	// as closed (name, start, end) spans: "gpu.simulate" for the engine
	// loop and "gpu.result" for result assembly. Flight recorders use it
	// to break an "engine run" span into its internal phases; nil — the
	// default — costs nothing.
	TraceSpan func(name string, start, end time.Time)
}

// DefaultMaxCycles is the runaway-simulation guard used when Options leaves
// MaxCycles at zero.
const DefaultMaxCycles = 50_000_000

// DefaultWatchdogInterval is the forward-progress check period used when
// Options leaves WatchdogInterval at zero. It is comfortably above every
// architectural latency (the longest, the CDP launch latency, is thousands
// of cycles), so a progress-free window of this length is a genuine
// deadlock rather than a long-latency wait.
const DefaultWatchdogInterval = 50_000

// Simulator owns one end-to-end simulation.
type Simulator struct {
	cfg   *config.GPU
	model Model
	// path is the model's child-launch path, computed once from the
	// registry descriptor and cfg; Launch consults it instead of
	// branching on the model identity.
	path  LaunchPath
	sched TBScheduler
	// eng is the engine the run borrows (engine.go); memsys, smxs,
	// arrivals and kmuQueue are its parts, held directly for the engine
	// loop and handed back by releaseEngine.
	eng    *engine
	memsys *mem.System
	smxs   []*smx.SMX
	seq    uint64

	now uint64
	// arrivals holds launched instances waiting out their launch
	// latency. Launch latency is uniform per launch path, but DropToKMU
	// demotions pay the (longer) CDP latency, so ArriveCycle is kept
	// sorted by insertion point (instQueue.insert).
	arrivals instQueue
	// delivered counts arrivals handed to the KMU or scheduler, for the
	// watchdog's progress vector.
	delivered uint64
	// kmuQueue holds instances at the KMU waiting for a KDU entry, one
	// FIFO per priority level (highest level dispatches first), each
	// with a head cursor.
	kmuQueue   []instQueue
	kmuCount   int
	kduUsed    int
	kduFilled  uint64 // cumulative KMU->KDU moves (watchdog progress)
	live       int
	nextID     int // the next instance's ID: the instances created so far
	maxCycles  uint64
	trace      func(ki *KernelInstance, tbIndex, smxID int, cycle uint64)
	traceQ     func(ev QueueEvent)
	traceBlock func(ki *KernelInstance, tbIndex, smxID int, dispatchCycle, cycle uint64)
	traceSmp   func(s Sample)
	traceInst  func(ki *KernelInstance, end uint64)

	// Bounded launch-path state. kmuInFlight counts device launches
	// holding a KMU pending-pool entry (in arrivals or KMU queues);
	// aggUsed counts direct-path children holding a direct-pool entry —
	// a DTBL aggregation-buffer or PMK task-queue slot (launched, not
	// yet fully dispatched).
	kmuInFlight int
	aggUsed     int
	peakKMU     int
	peakAgg     int
	// launchFrees counts decrements of kmuInFlight and aggUsed, the only
	// events that can turn a refused launch into an accepted one
	// (smx.Events.LaunchFrees).
	launchFrees uint64
	// Backpressure counters surfaced in Result.
	launchStallCycles   uint64
	launchStallEpisodes int64
	queueOverflows      int64
	tbsDispatched       uint64

	sampleEvery uint64
	samples     []Sample
	lastSample  sampleBase

	watchdogEvery uint64
	lastProgress  progressVec
	audit         bool

	// Event-horizon clock state (clock.go). ff enables fast-forwarding;
	// idleSched/idlePeriod cache the scheduler's IdleAware view (nil/0
	// when it opts out); nilStreak counts consecutive nil Selects since
	// the last dispatch-state change; pendingIdle counts elided Select
	// polls awaiting an O(1) replay.
	ff          bool
	idleSched   IdleAware
	idlePeriod  int
	nilStreak   int
	pendingIdle uint64
	// pendingEmpty counts elided Select polls from cycles on which the
	// scheduler held no unexhausted instance (schedLive == 0); they replay
	// through SkipEmptySelects instead of SkipIdleSelects. A quiesced
	// stretch accrues only one kind — schedLive can only change through an
	// enqueue or a real dispatch, both of which end the stretch first.
	pendingEmpty uint64
	// schedLive counts kernel instances handed to the TB scheduler and not
	// yet exhausted. At zero every Select is provably nil regardless of SMX
	// occupancy, so the scheduler is quiescent without waiting out a nil
	// streak — the common long-idle case where all blocks are dispatched
	// and executing.
	schedLive int
	started   time.Time

	// flts is the armed failpoint registry (nil = disarmed, zero-cost).
	flts *faults.Registry

	// traceSpan observes coarse wall-clock run phases (nil = off).
	traceSpan func(name string, start, end time.Time)

	// phaseList is the engine's phase decomposition, built once in New;
	// RunContext iterates it every processed cycle.
	phaseList []Clocked

	hostPending []*isa.Kernel
	ran         bool
}

// newInstance returns the next kernel instance, counted live: the engine's
// next record, zeroed but for its ID, in a chunk the engine kept from an
// earlier run or, past those, a new one.
func (s *Simulator) newInstance() *KernelInstance {
	id := s.nextID
	c := id / kiChunkSize
	if c == len(s.eng.kernels) {
		s.eng.kernels = append(s.eng.kernels, new(kiChunk))
	}
	ki := &s.eng.kernels[c][id%kiChunkSize]
	*ki = KernelInstance{ID: id}
	s.nextID++
	s.live++
	return ki
}

// instance returns the instance with the given ID.
func (s *Simulator) instance(id int) *KernelInstance {
	return &s.eng.kernels[id/kiChunkSize][id%kiChunkSize]
}

// New builds a simulator. Its engine — memory hierarchy, SMXs, queue
// storage and instance records — is one a finished run released, reset to a new engine's state,
// when one of the configuration's cache shapes is at hand (engine.go). New
// returns an error on a missing or invalid configuration or a nil scheduler.
// MustNew panics instead, for tests and known-good configurations.
func New(opts Options) (*Simulator, error) {
	if opts.Config == nil {
		return nil, fmt.Errorf("gpu: Options.Config is required")
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	if opts.Scheduler == nil {
		return nil, fmt.Errorf("gpu: Options.Scheduler is required")
	}
	modelInfo, ok := opts.Model.Info()
	if !ok {
		return nil, fmt.Errorf("gpu: unknown launch model %d (registered: %v)", int(opts.Model), ModelNames())
	}
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	watchdog := opts.WatchdogInterval
	if watchdog == 0 {
		watchdog = DefaultWatchdogInterval
	}
	if opts.NoWatchdog {
		watchdog = 0
	}
	s := &Simulator{
		cfg:           opts.Config,
		model:         opts.Model,
		path:          modelInfo.Path(opts.Config),
		sched:         opts.Scheduler,
		maxCycles:     maxCycles,
		trace:         opts.TraceDispatch,
		traceQ:        opts.TraceQueue,
		traceBlock:    opts.TraceBlockDone,
		traceSmp:      opts.TraceSample,
		traceInst:     opts.TraceKernel,
		sampleEvery:   opts.SampleEvery,
		watchdogEvery: watchdog,
		audit:         opts.Audit,
		ff:            !opts.DenseClock,
		flts:          opts.Faults,
		traceSpan:     opts.TraceSpan,
	}
	if ia, ok := opts.Scheduler.(IdleAware); ok {
		if p := ia.IdleSelectPeriod(); p > 0 {
			s.idleSched, s.idlePeriod = ia, p
		}
	}
	s.bindEngine(drawEngine(opts.Config), opts.WarpPolicy)
	if opts.Attribution {
		s.memsys.SetAttribution(true)
	}
	s.phaseList = s.phases()
	return s, nil
}

// MustNew builds a simulator, panicking on the errors New reports.
func MustNew(opts Options) *Simulator {
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// LaunchHost queues a host-side kernel launch, available to the KMU at
// cycle 0. It must be called before Run; host kernels do not consume
// device launch-pool entries.
func (s *Simulator) LaunchHost(k *isa.Kernel) error {
	if s.ran {
		return fmt.Errorf("gpu: LaunchHost after Run")
	}
	if err := k.Validate(); err != nil {
		return fmt.Errorf("gpu: invalid kernel: %w", err)
	}
	s.hostPending = append(s.hostPending, k)
	return nil
}

// NumSMX implements Dispatcher.
func (s *Simulator) NumSMX() int { return len(s.smxs) }

// CanFit implements Dispatcher.
func (s *Simulator) CanFit(smxID int, tb *isa.TB) bool { return s.smxs[smxID].CanFit(tb) }

// ResidentTBs implements Dispatcher.
func (s *Simulator) ResidentTBs(smxID int) int { return s.smxs[smxID].ResidentBlocks() }

// Cycle implements Dispatcher.
func (s *Simulator) Cycle() uint64 { return s.now }

// Launch implements smx.Events: a warp executed a device-side launch. The
// model's LaunchPath decides the route: direct paths (DTBL, PMK) hand the
// child straight to the TB scheduler after their launch latency; the KMU
// path (CDP) routes it through the KMU and KDU. It returns false — stalling
// the warp — when the path's bounded pool is full and does not overflow to
// the KMU; a direct launch that overflows with OverflowToKMU set is demoted
// to the KMU path instead, paying the CDP latency.
func (s *Simulator) Launch(smxID int, b *smx.Block, child *isa.Kernel, now uint64, retry bool) bool {
	parent := b.Owner.(*KernelInstance)
	direct := s.path.Direct
	demoted := false
	if direct && s.path.Capacity > 0 && s.aggUsed >= s.path.Capacity {
		if s.path.OverflowToKMU {
			direct, demoted = false, true
		} else {
			s.noteStall(smxID, parent, child, retry, s.path.Queue)
			return false
		}
	}
	if !direct && s.cfg.KMUPendingCapacity > 0 && s.kmuInFlight >= s.cfg.KMUPendingCapacity {
		s.noteStall(smxID, parent, child, retry, "kmu")
		return false
	}

	prio := parent.Priority + 1
	if prio > s.cfg.MaxPriorityLevels {
		prio = s.cfg.MaxPriorityLevels
	}
	latency := s.cfg.CDPLaunchLatency
	if direct {
		latency = s.path.Latency
	}
	ki := s.newInstance()
	ki.Prog = child
	ki.Priority = prio
	ki.BoundSMX = smxID
	ki.Parent = parent
	ki.LaunchCycle = now
	ki.ArriveCycle = now + uint64(latency)
	ki.viaKMU = !direct
	if direct {
		ki.poolAgg = true
		s.aggUsed++
		if s.aggUsed > s.peakAgg {
			s.peakAgg = s.aggUsed
		}
	} else {
		ki.poolKMU = true
		s.kmuInFlight++
		if s.kmuInFlight > s.peakKMU {
			s.peakKMU = s.kmuInFlight
		}
	}
	if demoted {
		s.queueOverflows++
		if s.traceQ != nil {
			s.traceQ(QueueEvent{Kind: QueueOverflow, Cycle: now, SMX: smxID,
				Parent: parent, Child: child, Queue: s.path.Queue})
		}
	}
	s.arrivals.insert(ki)
	return true
}

// LaunchFrees implements smx.Events: launch-pool entries released so far.
// Both release points (kmuDispatch and tbDispatch) run before the SMX phase
// of a cycle, so an SMX reading an unchanged count knows its stalled
// launches are still refused.
func (s *Simulator) LaunchFrees() uint64 { return s.launchFrees }

// noteStall accounts one stalled launch cycle, emitting a trace event at
// the start of each episode.
func (s *Simulator) noteStall(smxID int, parent *KernelInstance, child *isa.Kernel, retry bool, queue string) {
	s.launchStallCycles++
	if !retry {
		s.launchStallEpisodes++
		if s.traceQ != nil {
			s.traceQ(QueueEvent{Kind: QueueStall, Cycle: s.now, SMX: smxID,
				Parent: parent, Child: child, Queue: queue})
		}
	}
}

// BlockDone implements smx.Events: a thread block retired.
func (s *Simulator) BlockDone(smxID int, b *smx.Block, now uint64) {
	s.dirtySched() // freed SMX resources may unblock the TB scheduler
	ki := b.Owner.(*KernelInstance)
	ki.DoneTBs++
	if ki.Complete() {
		ki.CompleteCycle = now
		s.live--
		if ki.usesKDU {
			s.kduUsed--
		}
	}
	if s.traceBlock != nil {
		s.traceBlock(ki, b.TBIndex, smxID, b.DispatchCycle, now)
	}
}

// reuseTag is the attribution identity a kernel instance's blocks carry into
// the memory hierarchy.
func reuseTag(ki *KernelInstance) mem.Accessor {
	t := mem.Accessor{Inst: int32(ki.ID), Parent: -1}
	if ki.Parent != nil {
		t.Parent = int32(ki.Parent.ID)
	}
	return t
}

// compactThreshold is the head-cursor depth past which an instQueue copies
// its live tail down, so backing arrays do not grow without bound under
// steady launch pressure that never fully drains them.
const compactThreshold = 64

// instQueue is a queue of kernel instances with an amortised head cursor:
// one per KMU priority level (FIFO), and the arrivals queue (kept sorted by
// ArriveCycle through insert).
type instQueue struct {
	items []*KernelInstance
	head  int
}

func (q *instQueue) push(ki *KernelInstance) { q.items = append(q.items, ki) }

// insert adds ki after every queued instance that arrives no later, keeping
// the queue sorted by ArriveCycle. With a single launch path the arrivals
// are naturally sorted; DropToKMU demotions mix the two latencies, so later
// entries may need to shift by a few slots.
func (q *instQueue) insert(ki *KernelInstance) {
	q.items = append(q.items, ki)
	for i := len(q.items) - 1; i > q.head && q.items[i-1].ArriveCycle > ki.ArriveCycle; i-- {
		q.items[i] = q.items[i-1]
		q.items[i-1] = ki
	}
}

// peek returns the head instance without removing it, or nil when empty.
func (q *instQueue) peek() *KernelInstance {
	if q.empty() {
		return nil
	}
	return q.items[q.head]
}

func (q *instQueue) pop() *KernelInstance {
	if q.head >= len(q.items) {
		return nil
	}
	ki := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head >= compactThreshold && q.head*2 >= len(q.items) {
		q.compact()
	}
	return ki
}

// compact shifts the live entries to the front of the backing array and
// nils the vacated tail so popped instances become collectable.
func (q *instQueue) compact() {
	n := copy(q.items, q.items[q.head:])
	for i := n; i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = q.items[:n]
	q.head = 0
}

// reset empties the queue, keeping its backing array. Entries past the live
// window are already nil (pop and compact clear them).
func (q *instQueue) reset() {
	clear(q.items)
	*q = instQueue{items: q.items[:0]}
}

func (q *instQueue) len() int { return len(q.items) - q.head }

func (q *instQueue) empty() bool { return q.head >= len(q.items) }

// deliverArrivals moves launches whose latency has elapsed to the KMU (CDP
// and host kernels, plus demoted direct-path children) or directly to the
// TB scheduler (DTBL TB groups and PMK task-queue entries, which are always
// visible to it).
func (s *Simulator) deliverArrivals() {
	for ki := s.arrivals.peek(); ki != nil && ki.ArriveCycle <= s.now; ki = s.arrivals.peek() {
		s.arrivals.pop()
		s.delivered++
		if ki.viaKMU {
			p := ki.Priority
			if p >= len(s.kmuQueue) {
				p = len(s.kmuQueue) - 1
			}
			s.kmuQueue[p].push(ki)
			s.kmuCount++
		} else {
			s.enqueueSched(ki)
		}
	}
}

// pendingArrivals reports launches still waiting out their latency.
func (s *Simulator) pendingArrivals() int { return s.arrivals.len() }

// kmuDispatch fills free KDU entries from the KMU queues, highest priority
// first (FCFS within a priority level), as the prioritized kernel launch
// extension of Section IV-A requires. For the baseline RR scheduler every
// kernel has the same effective behaviour as plain FCFS since host kernels
// and CDP children arrive in launch order within a level. Moving a device
// kernel into the KDU releases its KMU pending-pool entry.
func (s *Simulator) kmuDispatch() error {
	for s.kduUsed < s.cfg.MaxConcurrentKernels && s.kmuCount > 0 {
		var ki *KernelInstance
		for p := len(s.kmuQueue) - 1; p >= 0; p-- {
			if ki = s.kmuQueue[p].pop(); ki != nil {
				break
			}
		}
		if ki == nil {
			return s.invariant("kmu-count",
				fmt.Sprintf("kmuCount %d but every priority queue is empty", s.kmuCount))
		}
		s.kmuCount--
		if ki.poolKMU {
			ki.poolKMU = false
			s.kmuInFlight--
			s.launchFrees++
		}
		ki.usesKDU = true
		s.kduUsed++
		s.kduFilled++
		s.enqueueSched(ki)
	}
	return nil
}

// enqueueSched hands an instance to the TB scheduler, maintaining the
// schedLive count and waking the scheduler phase.
func (s *Simulator) enqueueSched(ki *KernelInstance) {
	s.sched.Enqueue(ki)
	ki.enqueued = true
	if !ki.Exhausted() {
		s.schedLive++
	}
	s.dirtySched()
}

// tbDispatch runs the TB scheduler for this cycle's dispatch slots. A
// direct-path child's pool entry (aggregation buffer / task queue) is
// released when its last thread block dispatches. A quiesced IdleAware scheduler is not polled: the elided nil
// Select is counted and replayed in bulk once the scheduler wakes, so the
// Select-call sequence it observes is identical to dense clocking.
func (s *Simulator) tbDispatch() error {
	if s.schedQuiesced() {
		if s.schedLive == 0 {
			s.pendingEmpty++
		} else {
			s.pendingIdle++
		}
		return nil
	}
	if s.pendingIdle > 0 {
		s.idleSched.SkipIdleSelects(s.pendingIdle)
		s.pendingIdle = 0
	}
	if s.pendingEmpty > 0 {
		s.idleSched.SkipEmptySelects(s.pendingEmpty)
		s.pendingEmpty = 0
	}
	for slot := 0; slot < s.cfg.TBDispatchPerCycle; slot++ {
		ki, smxID := s.sched.Select(s)
		if ki == nil {
			s.nilStreak++
			return nil
		}
		s.nilStreak = 0
		if ki.Exhausted() {
			return s.invariant("scheduler-contract",
				fmt.Sprintf("scheduler %s selected exhausted kernel %d", s.sched.Name(), ki.ID))
		}
		tb := ki.PeekTB()
		if !s.smxs[smxID].CanFit(tb) {
			return s.invariant("scheduler-contract",
				fmt.Sprintf("scheduler %s selected SMX %d without room for kernel %d", s.sched.Name(), smxID, ki.ID))
		}
		if s.trace != nil {
			s.trace(ki, ki.NextTB, smxID, s.now)
		}
		tbIndex := ki.NextTB
		ki.NextTB++
		s.tbsDispatched++
		if ki.Exhausted() {
			s.schedLive--
			if ki.poolAgg {
				ki.poolAgg = false
				s.aggUsed--
				s.launchFrees++
			}
		}
		if !ki.dispatchedAny {
			ki.dispatchedAny = true
			ki.FirstDispatchCycle = s.now
		}
		s.smxs[smxID].AddBlockAttr(tb, ki, tbIndex, reuseTag(ki), s.now)
	}
	return nil
}

func (s *Simulator) done() bool {
	return s.live == 0 && s.pendingArrivals() == 0 && s.kmuCount == 0
}

// Run executes the simulation to completion and returns the result. On
// failure it returns one of the structured errors documented in errors.go:
// *DeadlockError when the watchdog finds a progress-free window,
// *InvariantError when auditing detects corrupted state, and
// *CycleLimitError when the MaxCycles guard is hit.
//
// The loop is a phased engine (clock.go): every processed cycle ticks each
// phase once, in the order of the original dense loop. Under the default
// fast-forward clock the engine then merges the phases' NextEvent horizons
// and, when the minimum lies beyond the next cycle, credits the skipped span
// to each phase and jumps straight to it; with Options.DenseClock it steps
// one cycle at a time. Both clockings process the same cycles with the same
// state, so every observable is byte-identical.
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// ctxCheckMask throttles RunContext's cancellation polls: the context is
// consulted once every ctxCheckMask+1 engine-loop iterations, so a canceled
// run stops within a few thousand processed cycles while an uncanceled run
// pays nothing measurable.
const ctxCheckMask = 1<<13 - 1

// RunContext is Run under a context: cancellation (or a deadline) observed
// mid-run stops the simulation and returns a *CanceledError wrapping
// context.Cause(ctx), alongside the error taxonomy Run documents. The engine
// polls the context every few thousand loop iterations, so cancellation
// latency is milliseconds, not cycles. A Result is never returned for a
// canceled run; build a fresh Simulator to retry.
//
// However the run ends, RunContext hands every kernel instance to
// Options.TraceKernel and then releases the simulator's engine — its memory
// hierarchy, SMXs, queue storage and instance records — for a later
// simulator of the same geometry to recycle, and drops its references to
// it: NumSMX then reads 0, while Cycle keeps answering for the run. A run
// that panics keeps its engine, which no later run then draws.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("gpu: Run called twice")
	}
	s.ran = true
	res, err := s.run(ctx)
	if s.traceInst != nil {
		for id := 0; id < s.nextID; id++ {
			s.traceInst(s.instance(id), s.now)
		}
	}
	s.releaseEngine()
	return res, err
}

// materializeHost turns the kernels LaunchHost queued into instances that
// arrive at the KMU at cycle 0.
func (s *Simulator) materializeHost() {
	for _, k := range s.hostPending {
		ki := s.newInstance()
		ki.Prog, ki.BoundSMX, ki.viaKMU = k, -1, true
		s.arrivals.push(ki)
	}
}

// run is RunContext's simulation, on the engine RunContext then releases.
func (s *Simulator) run(ctx context.Context) (*Result, error) {
	s.started = time.Now()
	s.materializeHost()
	if s.live == 0 {
		return nil, fmt.Errorf("gpu: nothing to run; call LaunchHost first")
	}
	s.lastProgress = s.progress()
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Cycle: s.now, Live: s.live, Cause: context.Cause(ctx)}
	}

	if s.traceSpan != nil {
		simStart := time.Now()
		defer func() { s.traceSpan("gpu.simulate", simStart, time.Now()) }()
	}
	phases := s.phaseList
	var iter uint64
	for s.now < s.maxCycles {
		if iter++; iter&ctxCheckMask == 0 {
			// The failpoint shares the poll cadence: error faults
			// surface as a transient engine failure, delay faults
			// widen the cancellation/watchdog race window.
			if err := s.flts.Hit(faults.SiteGPURunPoll); err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, &CanceledError{Cycle: s.now, Live: s.live, Cause: context.Cause(ctx)}
			}
		}
		for _, ph := range phases {
			if err := ph.Tick(s.now); err != nil {
				return nil, err
			}
		}
		if s.done() {
			s.now++
			if s.audit {
				if err := s.runAudit(); err != nil {
					return nil, err
				}
			}
			if s.traceSpan != nil {
				resStart := time.Now()
				res := s.result()
				s.traceSpan("gpu.result", resStart, time.Now())
				return res, nil
			}
			return s.result(), nil
		}
		next := s.now + 1
		if s.ff {
			horizon := uint64(NoEvent)
			for _, ph := range phases {
				if h := ph.NextEvent(next); h < horizon {
					horizon = h
				}
			}
			if horizon > s.maxCycles {
				// An all-inert machine that is not done (a deadlock
				// with the watchdog disabled) runs out the clock, as
				// the dense loop would.
				horizon = s.maxCycles
			}
			if horizon > next {
				span := horizon - next
				for _, ph := range phases {
					ph.Skip(span)
				}
				next = horizon
			}
		}
		s.now = next
	}
	return nil, &CycleLimitError{
		MaxCycles:       s.maxCycles,
		Live:            s.live,
		PendingArrivals: s.pendingArrivals(),
		KMUQueued:       s.kmuCount,
	}
}
