// Package config defines the architectural configuration of the simulated
// GPU. The default configuration reproduces Table I of the LaPerm paper
// (ISCA 2016): an NVIDIA Kepler K20c with the GK110 architecture as modelled
// by GPGPU-Sim for CUDA compute capability 3.5.
package config

import (
	"errors"
	"fmt"
)

// WarpSize is the number of threads per warp on every supported
// architecture. The BSP execution model of the paper (and of CUDA/OpenCL)
// fixes this at 32.
const WarpSize = 32

// LineSize is the cache line (and memory transaction) size in bytes for both
// cache levels. Table I: 128 bytes. The shared-footprint methodology of
// Section III-A also counts references in units of 128-byte blocks.
const LineSize = 128

// MaxL1MSHRs is the largest supported L1MSHRs: the memory model counts an
// MSHR table's entries in 16-bit counters.
const MaxL1MSHRs = 1<<16 - 1

// OverflowPolicy selects what happens when a device-side launch finds its
// launch queue (the KMU pending pool or the DTBL aggregation buffer) full.
type OverflowPolicy int

const (
	// StallWarp is the hardware-faithful default: the launching warp
	// stalls and retries the launch instruction every cycle until an
	// entry frees up, exerting backpressure on the parent kernel.
	StallWarp OverflowPolicy = iota
	// DropToKMU applies to DTBL only: a TB-group launch that finds the
	// aggregation buffer full falls back to the CDP device-kernel path
	// (KMU -> KDU), paying the full CDP launch latency. This mirrors the
	// DTBL fallback where groups that cannot be coalesced are demoted to
	// ordinary device kernels.
	DropToKMU
)

// String returns the policy name.
func (p OverflowPolicy) String() string {
	switch p {
	case StallWarp:
		return "stall-warp"
	case DropToKMU:
		return "drop-to-kmu"
	}
	return fmt.Sprintf("OverflowPolicy(%d)", int(p))
}

// GPU holds every architectural parameter of the simulated device.
//
// The zero value is not usable; start from KeplerK20c and override fields,
// then call Validate.
type GPU struct {
	// Name labels the configuration in reports.
	Name string

	// CoreClockMHz is the SMX clock. Table I: 706 MHz.
	CoreClockMHz int
	// MemClockMHz is the memory clock. Table I: 2600 MHz. The timing model
	// runs on the core clock; the memory clock is folded into the DRAM
	// bandwidth figure (see DRAMTransPer1000Cycles).
	MemClockMHz int

	// NumSMX is the number of streaming multiprocessors. Table I: 13.
	NumSMX int
	// SMXsPerCluster groups SMXs into clusters sharing one L1 cache
	// (Section IV-B: "in some GPUs, SMXs are divided into multiple
	// clusters where ... the L1 cache is shared by all the SMXs in a
	// cluster"). The SMX-binding schedulers then bind child TBs to the
	// whole cluster. 1 (the K20c arrangement) means private L1s.
	SMXsPerCluster int

	// Per-SMX resource limits (Table I: 2048 threads, 16 TBs, 65536
	// registers, 32 KB shared memory).
	ThreadsPerSMX   int
	TBsPerSMX       int
	RegistersPerSMX int
	SharedMemPerSMX int

	// IssueWidth is the number of warp instructions an SMX can issue per
	// cycle (Kepler has four warp schedulers).
	IssueWidth int

	// L1 cache geometry (per SMX). Table I: 32 KB, 128-byte lines.
	L1Bytes int
	L1Assoc int
	// L1MSHRs bounds the outstanding misses per SMX L1; a full MSHR table
	// stalls the issuing warp. At most MaxL1MSHRs.
	L1MSHRs int

	// L2 cache geometry (shared, banked). Table I: 1536 KB.
	L2Bytes int
	L2Assoc int
	// L2Banks is the number of address-interleaved L2 partitions, each in
	// front of one memory controller.
	L2Banks int

	// Latencies in core cycles from issue to data return.
	L1HitLatency int
	L2HitLatency int
	DRAMLatency  int
	// DRAMTransPer1000Cycles caps DRAM bandwidth: the number of 128-byte
	// transactions the off-chip interface can complete per 1000 core
	// cycles. K20c: 208 GB/s at 706 MHz core clock is about 2300
	// transactions per 1000 cycles.
	DRAMTransPer1000Cycles int

	// MaxConcurrentKernels is the number of Kernel Distributor Unit
	// entries. Table I: 32. It also bounds the device kernels visible to
	// the TB scheduler under CDP (Section IV-C).
	MaxConcurrentKernels int

	// MaxPriorityLevels is L, the maximum nesting level for TB-Pri
	// priority assignment (Section IV-A). Nested launches deeper than L
	// are clamped to L.
	MaxPriorityLevels int

	// CDPLaunchLatency is the device-kernel launch latency in core cycles
	// (time from the launch instruction until the child kernel is visible
	// to the KMU). The paper adopts the measured CDP latency methodology
	// of the DTBL paper, where CDP launches cost thousands of cycles.
	CDPLaunchLatency int
	// DTBLLaunchLatency is the TB-group launch latency in core cycles.
	// DTBL launches are lightweight (tens of cycles).
	DTBLLaunchLatency int

	// TBDispatchPerCycle is how many TBs the SMX scheduler may dispatch
	// per cycle (Section II-B: one TB per cycle).
	TBDispatchPerCycle int

	// KMUPendingCapacity bounds the KMU pending-kernel pool: device-side
	// kernel launches that have executed but not yet been moved into a
	// KDU entry (in-flight launch latency plus the KMU queues). CUDA's
	// default device pending-launch count is 2048 grids; a warp whose
	// launch finds the pool full stalls until an entry frees. 0 means
	// unbounded. Host-launched kernels do not consume pool entries.
	KMUPendingCapacity int
	// DTBLAggBufferEntries bounds the DTBL aggregation buffer: TB groups
	// that have been launched but whose thread blocks have not all been
	// dispatched yet. A full buffer triggers DTBLOverflowPolicy. 0 means
	// unbounded.
	DTBLAggBufferEntries int
	// DTBLOverflowPolicy selects the behaviour of a DTBL launch that
	// finds the aggregation buffer full: StallWarp (default) or
	// DropToKMU.
	DTBLOverflowPolicy OverflowPolicy

	// PMKLaunchLatency is the persistent-microkernel launch latency in
	// core cycles: a task-queue push plus the dequeue by a scheduler warp
	// resident on the SMX. Cheaper than DTBL's hardware coalescing path —
	// no KMU or distributor interaction at all.
	PMKLaunchLatency int
	// PMKTaskQueueEntries bounds the persistent microkernel's device-side
	// task queue: children that have been published but whose thread
	// blocks have not all been dispatched yet. The queue is a
	// memory-backed ring consumed by the resident scheduler warps; a
	// producer that finds it full spins until an entry frees (there is no
	// KMU fallback). 0 means unbounded.
	PMKTaskQueueEntries int
}

// KeplerK20c returns the baseline configuration of Table I.
func KeplerK20c() GPU {
	return GPU{
		Name:                   "NVIDIA Kepler K20c (GK110)",
		CoreClockMHz:           706,
		MemClockMHz:            2600,
		NumSMX:                 13,
		SMXsPerCluster:         1,
		ThreadsPerSMX:          2048,
		TBsPerSMX:              16,
		RegistersPerSMX:        65536,
		SharedMemPerSMX:        32 * 1024,
		IssueWidth:             4,
		L1Bytes:                32 * 1024,
		L1Assoc:                4,
		L1MSHRs:                32,
		L2Bytes:                1536 * 1024,
		L2Assoc:                8,
		L2Banks:                6,
		L1HitLatency:           28,
		L2HitLatency:           190,
		DRAMLatency:            340,
		DRAMTransPer1000Cycles: 2300,
		MaxConcurrentKernels:   32,
		MaxPriorityLevels:      4,
		CDPLaunchLatency:       5000,
		DTBLLaunchLatency:      75,
		TBDispatchPerCycle:     1,
		KMUPendingCapacity:     2048,
		DTBLAggBufferEntries:   1024,
		// DropToKMU in the baked configurations: deeply nested workloads
		// can fill the aggregation buffer with TB groups that are waiting
		// for SMX space held by their stalled parents, which under
		// StallWarp is a genuine scheduling deadlock (the watchdog reports
		// it). The DTBL fallback demotes the overflow to the kernel path
		// instead, trading launch latency for guaranteed progress.
		DTBLOverflowPolicy: DropToKMU,
		PMKLaunchLatency:   40,
		// Sized like the KMU pending pool rather than the aggregation
		// buffer: the task queue stalls producers when full (no KMU
		// fallback exists), so it must exceed any workload's peak live
		// child count the way the 2048-grid pending pool does.
		PMKTaskQueueEntries: 8192,
	}
}

// SmallTest returns a reduced configuration (4 SMXs, small caches) for unit
// tests that need short simulations with observable cache pressure. It is
// not a model of real hardware.
func SmallTest() GPU {
	g := KeplerK20c()
	g.Name = "small-test"
	g.NumSMX = 4
	g.ThreadsPerSMX = 512
	g.TBsPerSMX = 4
	g.RegistersPerSMX = 16384
	g.SharedMemPerSMX = 16 * 1024
	g.L1Bytes = 4 * 1024
	g.L2Bytes = 64 * 1024
	g.L2Banks = 2
	g.CDPLaunchLatency = 500
	g.DTBLLaunchLatency = 20
	// The KMU pending pool (2048) is inherited, not downscaled: under CDP
	// with StallWarp semantics a pool smaller than a workload's peak live
	// kernel count can wedge the machine (parents hold every TB slot while
	// stalled on the full pool), and several small-scale benchmarks carry
	// hundreds of concurrent children. Only the aggregation buffer shrinks;
	// its DropToKMU fallback always makes progress.
	g.DTBLAggBufferEntries = 128
	// The PMK task queue is inherited at full size for the same reason as
	// the KMU pool (stalling producers must never wedge a saturated small
	// machine); only its latency scales down with the other launch costs.
	g.PMKLaunchLatency = 12
	return g
}

// Clone returns an independent copy of the configuration. GPU deliberately
// contains no pointer, slice, or map fields (TestGPUHasNoReferenceFields
// enforces this), so a value copy is a deep copy: concurrent simulations can
// each take a Clone and mutate it freely without racing. Keep it that way
// when adding parameters.
func (g *GPU) Clone() GPU { return *g }

// L1Sets returns the number of sets in each SMX's L1 cache.
func (g *GPU) L1Sets() int { return g.L1Bytes / (LineSize * g.L1Assoc) }

// L2SetsPerBank returns the number of sets in each L2 bank.
func (g *GPU) L2SetsPerBank() int { return g.L2Bytes / (LineSize * g.L2Assoc * g.L2Banks) }

// WarpsPerSMX returns the maximum resident warps per SMX.
func (g *GPU) WarpsPerSMX() int { return g.ThreadsPerSMX / WarpSize }

// NumClusters returns the number of L1-sharing SMX clusters.
func (g *GPU) NumClusters() int { return g.NumSMX / g.SMXsPerCluster }

// ClusterOf returns the cluster an SMX belongs to.
func (g *GPU) ClusterOf(smx int) int { return smx / g.SMXsPerCluster }

// Validate reports a descriptive error if the configuration is internally
// inconsistent (non-positive resources, cache geometry that does not divide
// evenly or whose set counts are not powers of two, etc.).
func (g *GPU) Validate() error {
	type check struct {
		ok  bool
		msg string
	}
	checks := []check{
		{g.NumSMX > 0, "NumSMX must be positive"},
		{g.SMXsPerCluster > 0, "SMXsPerCluster must be positive"},
		{g.SMXsPerCluster > 0 && g.NumSMX%g.SMXsPerCluster == 0, "SMXsPerCluster must divide NumSMX"},
		{g.ThreadsPerSMX >= WarpSize, "ThreadsPerSMX must be at least one warp"},
		{g.ThreadsPerSMX%WarpSize == 0, "ThreadsPerSMX must be a multiple of the warp size"},
		{g.TBsPerSMX > 0, "TBsPerSMX must be positive"},
		{g.RegistersPerSMX > 0, "RegistersPerSMX must be positive"},
		{g.SharedMemPerSMX >= 0, "SharedMemPerSMX must be non-negative"},
		{g.IssueWidth > 0, "IssueWidth must be positive"},
		{g.L1Bytes > 0 && g.L1Assoc > 0, "L1 geometry must be positive"},
		{g.L2Bytes > 0 && g.L2Assoc > 0 && g.L2Banks > 0, "L2 geometry must be positive"},
		{g.L1MSHRs > 0 && g.L1MSHRs <= MaxL1MSHRs, "L1MSHRs must be positive and at most MaxL1MSHRs"},
		{g.L1HitLatency > 0, "L1HitLatency must be positive"},
		{g.L2HitLatency > g.L1HitLatency, "L2HitLatency must exceed L1HitLatency"},
		{g.DRAMLatency > g.L2HitLatency, "DRAMLatency must exceed L2HitLatency"},
		{g.DRAMTransPer1000Cycles > 0, "DRAMTransPer1000Cycles must be positive"},
		{g.MaxConcurrentKernels > 0, "MaxConcurrentKernels must be positive"},
		{g.MaxPriorityLevels > 0, "MaxPriorityLevels must be positive"},
		{g.CDPLaunchLatency >= 0, "CDPLaunchLatency must be non-negative"},
		{g.DTBLLaunchLatency >= 0, "DTBLLaunchLatency must be non-negative"},
		{g.TBDispatchPerCycle > 0, "TBDispatchPerCycle must be positive"},
		{g.KMUPendingCapacity >= 0, "KMUPendingCapacity must be non-negative (0 = unbounded)"},
		{g.DTBLAggBufferEntries >= 0, "DTBLAggBufferEntries must be non-negative (0 = unbounded)"},
		{g.DTBLOverflowPolicy == StallWarp || g.DTBLOverflowPolicy == DropToKMU,
			"DTBLOverflowPolicy must be StallWarp or DropToKMU"},
		{g.PMKLaunchLatency >= 0, "PMKLaunchLatency must be non-negative"},
		{g.PMKTaskQueueEntries >= 0, "PMKTaskQueueEntries must be non-negative (0 = unbounded)"},
	}
	for _, c := range checks {
		if !c.ok {
			return errors.New("config: " + c.msg)
		}
	}
	if g.L1Bytes%(LineSize*g.L1Assoc) != 0 {
		return fmt.Errorf("config: L1Bytes %d not divisible into %d-way %d-byte-line sets", g.L1Bytes, g.L1Assoc, LineSize)
	}
	if g.L2Bytes%(LineSize*g.L2Assoc*g.L2Banks) != 0 {
		return fmt.Errorf("config: L2Bytes %d not divisible into %d banks of %d-way %d-byte-line sets", g.L2Bytes, g.L2Banks, g.L2Assoc, LineSize)
	}
	// Caches index their sets with a mask of the line ID's low bits.
	if n := g.L1Sets(); n&(n-1) != 0 {
		return fmt.Errorf("config: L1 set count %d is not a power of two", n)
	}
	if n := g.L2SetsPerBank(); n&(n-1) != 0 {
		return fmt.Errorf("config: L2 sets per bank %d is not a power of two", n)
	}
	return nil
}

// String summarises the configuration on one line.
func (g *GPU) String() string {
	return fmt.Sprintf("%s: %d SMXs, %d threads/SMX, L1 %dKB, L2 %dKB, %d KDU entries",
		g.Name, g.NumSMX, g.ThreadsPerSMX, g.L1Bytes/1024, g.L2Bytes/1024, g.MaxConcurrentKernels)
}
