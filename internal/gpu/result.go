package gpu

import (
	"fmt"
	"math"
	"time"

	"laperm/internal/mem"
	"laperm/internal/smx"
)

// Sample is one point of a run's timeline. Rate fields (IPC, hit rates,
// stall and dispatch counts) cover the window since the previous sample;
// occupancy and queue-depth fields are instantaneous.
type Sample struct {
	// Cycle is the sample position.
	Cycle uint64
	// IPC is the windowed thread-instructions per cycle.
	IPC float64
	// L1 and L2 are the windowed cache hit rates (0 when the window had
	// no accesses).
	L1, L2 float64
	// ResidentTBs is the instantaneous thread-block count across SMXs.
	ResidentTBs int
	// LiveKernels is the instantaneous count of incomplete kernel
	// instances.
	LiveKernels int
	// SMXResident is the instantaneous per-SMX resident thread-block
	// count (index = SMX ID).
	SMXResident []int
	// PendingArrivals counts launches still waiting out their launch
	// latency; KMUQueued instances queued at the KMU for a KDU entry;
	// KDUUsed occupied KDU entries; AggEntries DTBL aggregation-buffer
	// entries in use.
	PendingArrivals int
	KMUQueued       int
	KDUUsed         int
	AggEntries      int
	// TBsDispatched counts thread blocks dispatched during the window.
	TBsDispatched uint64
	// MemStalls and LaunchStalls count warp-cycles spent stalled in the
	// window on a full MSHR table / full launch queue.
	MemStalls    int64
	LaunchStalls int64
	// L1ParentChild is the windowed parent-child share of classified L1
	// hits (0 unless Options.Attribution is on).
	L1ParentChild float64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Scheduler and Model identify the run.
	Scheduler string
	Model     Model

	// Cycles is the total simulated core cycles.
	Cycles uint64
	// ThreadInsts is the total per-thread instruction count issued.
	ThreadInsts int64
	// IPC is ThreadInsts / Cycles.
	IPC float64

	// L1 aggregates load statistics over all SMX L1 caches; L2 over all
	// banks.
	L1 mem.Stats
	L2 mem.Stats
	// L1Reuse and L2Reuse break the caches' hits down by the relationship
	// between the accessing kernel instance and the one that installed
	// the line (self / parent-child / sibling / cross) — the repo-native
	// Figure 3 locality evidence. Zero-valued unless Options.Attribution
	// was set.
	L1Reuse mem.ReuseStats
	L2Reuse mem.ReuseStats
	// DRAMTransactions counts 128-byte off-chip transfers.
	DRAMTransactions int64

	// SMXStats holds per-SMX execution statistics.
	SMXStats []smx.Stats

	// KernelCount and BlockCount size the run; DynamicKernelCount counts
	// device-side launches.
	KernelCount        int
	BlockCount         int
	DynamicKernelCount int

	// AvgChildWait is the mean cycles between a dynamic launch executing
	// and its first thread block dispatching — the parent-to-child time
	// gap LaPerm tries to shrink (Section III-B).
	AvgChildWait float64

	// LoadImbalance is the coefficient of variation of per-SMX busy
	// (resident) cycles: 0 for perfectly balanced SMXs.
	LoadImbalance float64

	// LaunchStallCycles counts warp-cycles spent stalled on a full launch
	// queue (KMU pending pool or DTBL aggregation buffer), and
	// LaunchStallEpisodes the distinct stall episodes behind them.
	LaunchStallCycles   uint64
	LaunchStallEpisodes int64
	// QueueOverflows counts DTBL launches demoted to the KMU path by the
	// DropToKMU overflow policy.
	QueueOverflows int64
	// PeakKMUPending and PeakAggEntries are high-water marks of the
	// bounded launch pools, for sizing capacities.
	PeakKMUPending int
	PeakAggEntries int

	// Timeline is the run's sampled timeline when Options.SampleEvery was
	// set, one Sample per window.
	Timeline []Sample

	// WallTime is the host-side duration of Run and SimCyclesPerSec the
	// simulation throughput (Cycles / WallTime) — the only
	// non-deterministic fields of a Result. Sweep harnesses that compare
	// Results bit-for-bit (internal/exp) zero them after folding the
	// cycle count into their throughput meter.
	WallTime        time.Duration
	SimCyclesPerSec float64
}

// sampleBase holds the cumulative counters at the previous sample, so each
// Sample reports windowed rates.
type sampleBase struct {
	cycle         uint64
	threadInsts   int64
	l1, l2        mem.Stats
	l1Reuse       mem.ReuseStats
	tbsDispatched uint64
	memStalls     int64
	launchStalls  int64
}

func (s *Simulator) takeSample() {
	var insts, memStalls, launchStalls int64
	resident := 0
	perSMX := make([]int, len(s.smxs))
	for i, x := range s.smxs {
		st := x.Stats()
		insts += st.ThreadInsts
		memStalls += st.MemStallEvents
		launchStalls += st.LaunchStallEvents
		perSMX[i] = x.ResidentBlocks()
		resident += perSMX[i]
	}
	l1, l2 := s.memsys.L1Total(), s.memsys.L2Total()
	l1Reuse := s.memsys.L1Reuse()
	window := s.now - s.lastSample.cycle
	smp := Sample{
		Cycle:           s.now,
		ResidentTBs:     resident,
		LiveKernels:     s.live,
		SMXResident:     perSMX,
		PendingArrivals: s.pendingArrivals(),
		KMUQueued:       s.kmuCount,
		KDUUsed:         s.kduUsed,
		AggEntries:      s.aggUsed,
		TBsDispatched:   s.tbsDispatched - s.lastSample.tbsDispatched,
		MemStalls:       memStalls - s.lastSample.memStalls,
		LaunchStalls:    launchStalls - s.lastSample.launchStalls,
	}
	if window > 0 {
		smp.IPC = float64(insts-s.lastSample.threadInsts) / float64(window)
	}
	if d := l1.Accesses - s.lastSample.l1.Accesses; d > 0 {
		smp.L1 = float64(l1.Hits-s.lastSample.l1.Hits) / float64(d)
	}
	if d := l2.Accesses - s.lastSample.l2.Accesses; d > 0 {
		smp.L2 = float64(l2.Hits-s.lastSample.l2.Hits) / float64(d)
	}
	if d := l1Reuse.Total() - s.lastSample.l1Reuse.Total(); d > 0 {
		smp.L1ParentChild = float64(l1Reuse.ParentChild-s.lastSample.l1Reuse.ParentChild) / float64(d)
	}
	s.samples = append(s.samples, smp)
	s.lastSample = sampleBase{
		cycle:         s.now,
		threadInsts:   insts,
		l1:            l1,
		l2:            l2,
		l1Reuse:       l1Reuse,
		tbsDispatched: s.tbsDispatched,
		memStalls:     memStalls,
		launchStalls:  launchStalls,
	}
	if s.traceSmp != nil {
		s.traceSmp(smp)
	}
}

func (s *Simulator) result() *Result {
	r := &Result{
		Scheduler: s.sched.Name(),
		Model:     s.model,
		Cycles:    s.now,
		L1:        s.memsys.L1Total(),
		L2:        s.memsys.L2Total(),

		DRAMTransactions: s.memsys.DRAMTransactions(),

		LaunchStallCycles:   s.launchStallCycles,
		LaunchStallEpisodes: s.launchStallEpisodes,
		QueueOverflows:      s.queueOverflows,
		PeakKMUPending:      s.peakKMU,
		PeakAggEntries:      s.peakAgg,
	}
	r.SMXStats = make([]smx.Stats, len(s.smxs))
	for i, x := range s.smxs {
		r.SMXStats[i] = x.Stats()
		r.ThreadInsts += x.Stats().ThreadInsts
		r.BlockCount += x.Stats().BlocksCompleted
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.ThreadInsts) / float64(r.Cycles)
	}
	r.KernelCount = s.nextID
	var waitSum float64
	var waitN int
	for id := 0; id < s.nextID; id++ {
		ki := s.instance(id)
		if ki.Parent == nil {
			continue
		}
		r.DynamicKernelCount++
		if ki.dispatchedAny {
			waitSum += float64(ki.FirstDispatchCycle - ki.LaunchCycle)
			waitN++
		}
	}
	if waitN > 0 {
		r.AvgChildWait = waitSum / float64(waitN)
	}
	r.LoadImbalance = imbalance(r.SMXStats)
	r.L1Reuse = s.memsys.L1Reuse()
	r.L2Reuse = s.memsys.L2Reuse()
	r.Timeline = s.samples
	r.WallTime = time.Since(s.started)
	if secs := r.WallTime.Seconds(); secs > 0 {
		r.SimCyclesPerSec = float64(r.Cycles) / secs
	}
	return r
}

// imbalance returns the coefficient of variation of per-SMX resident
// cycles.
func imbalance(stats []smx.Stats) float64 {
	if len(stats) == 0 {
		return 0
	}
	var sum float64
	for _, st := range stats {
		sum += float64(st.ResidentCycles)
	}
	mean := sum / float64(len(stats))
	if mean == 0 {
		return 0
	}
	var varSum float64
	for _, st := range stats {
		d := float64(st.ResidentCycles) - mean
		varSum += d * d
	}
	return math.Sqrt(varSum/float64(len(stats))) / mean
}

// String summarises the result on a few lines.
func (r *Result) String() string {
	s := fmt.Sprintf(
		"%s/%s: %d cycles, IPC %.2f, L1 %.1f%%, L2 %.1f%%, %d kernels (%d dynamic), %d TBs, child wait %.0f cyc, imbalance %.3f",
		r.Scheduler, r.Model, r.Cycles, r.IPC,
		100*r.L1.HitRate(), 100*r.L2.HitRate(),
		r.KernelCount, r.DynamicKernelCount, r.BlockCount,
		r.AvgChildWait, r.LoadImbalance)
	if r.LaunchStallCycles > 0 || r.QueueOverflows > 0 {
		s += fmt.Sprintf(", launch backpressure %d stall cyc / %d overflows",
			r.LaunchStallCycles, r.QueueOverflows)
	}
	return s
}
