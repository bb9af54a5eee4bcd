// Package laperm is a from-scratch reproduction of "LaPerm: Locality Aware
// Scheduler for Dynamic Parallelism on GPUs" (Wang, Rubin, Sidelnik,
// Yalamanchili — ISCA 2016): a cycle-level GPU simulator in the style of
// GPGPU-Sim configured as an NVIDIA Kepler K20c, both dynamic-parallelism
// launch models (CUDA Dynamic Parallelism device kernels and Dynamic Thread
// Block Launch TB groups), the baseline round-robin thread-block scheduler,
// the three LaPerm scheduling policies, the eight irregular benchmarks of
// the paper's Table II, and the analyses behind every table and figure of
// its evaluation.
//
// This package is the public facade: it re-exports the library's main types
// and constructors so downstream users need a single import. The
// implementation lives under internal/ (see DESIGN.md for the full module
// map):
//
//	internal/config   Table I machine description
//	internal/isa      abstract warp ISA and program builders
//	internal/mem      L1/L2/DRAM hierarchy with MSHRs and hashing
//	internal/smx      streaming multiprocessor and warp schedulers
//	internal/gpu      KMU/KDU, launch paths, engine loop
//	internal/core     the TB schedulers (the paper's contribution)
//	internal/graph    CSR substrate and synthetic graph inputs
//	internal/kernels  Table II workload generators
//	internal/metrics  shared-footprint analysis (Figure 2)
//	internal/exp      per-figure experiment runners
//
// # Quick start
//
//	cfg := laperm.KeplerK20c()
//	sim, err := laperm.NewSimulator(laperm.SimOptions{
//		Config:    &cfg,
//		Scheduler: laperm.NewAdaptiveBind(cfg.NumSMX, cfg.MaxPriorityLevels),
//		Model:     laperm.DTBL,
//	})
//	if err != nil { ... }
//	w, err := laperm.WorkloadByName("bfs-citation")
//	if err != nil { ... }
//	if err := sim.LaunchHost(w.Build(laperm.ScaleSmall)); err != nil { ... }
//	res, err := sim.Run()
//
// Run returns structured errors for abnormal terminations: a
// *DeadlockError when the forward-progress watchdog catches a scheduling
// deadlock, an *InvariantError when auditing (SimOptions.Audit) finds
// corrupted engine state, and a *CycleLimitError when MaxCycles is hit.
// Inspect them with errors.As.
package laperm

import (
	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/isa"
	"laperm/internal/kernels"
	"laperm/internal/mem"
	"laperm/internal/metrics"
	"laperm/internal/spec"
	"laperm/internal/trace"
)

// Re-exported core types. The aliases make the internal implementation
// types usable from outside the module through this package.
type (
	// Config is the architectural configuration of the simulated GPU.
	Config = config.GPU
	// Model selects the dynamic-parallelism launch mechanism.
	Model = gpu.Model
	// Scheduler is a thread-block scheduling policy.
	Scheduler = gpu.TBScheduler
	// SimOptions configures a Simulator.
	SimOptions = gpu.Options
	// Simulator owns one end-to-end simulation.
	Simulator = gpu.Simulator
	// Result is the outcome of one simulation run.
	Result = gpu.Result
	// Kernel is a grid of thread-block programs.
	Kernel = isa.Kernel
	// TBBuilder assembles one thread block's program.
	TBBuilder = isa.TBBuilder
	// KernelBuilder assembles a grid.
	KernelBuilder = isa.KernelBuilder
	// Workload is one (application, input) pair of the evaluation.
	Workload = kernels.Workload
	// Scale selects workload size.
	Scale = kernels.Scale
	// FootprintStats is the Figure 2 shared-footprint measurement.
	FootprintStats = metrics.FootprintStats
	// ExpOptions configures an experiment run.
	ExpOptions = exp.Options
	// Experiment is one regenerable table or figure.
	Experiment = exp.Experiment
	// OverflowPolicy selects the behaviour of a launch that finds its
	// bounded queue full.
	OverflowPolicy = config.OverflowPolicy
	// DeadlockError is returned by Run when the forward-progress
	// watchdog finds a scheduling deadlock.
	DeadlockError = gpu.DeadlockError
	// InvariantError is returned by Run when the invariant auditor finds
	// corrupted engine state.
	InvariantError = gpu.InvariantError
	// CycleLimitError is returned by Run when MaxCycles is exceeded.
	CycleLimitError = gpu.CycleLimitError
	// CanceledError is returned by RunContext when its context is
	// canceled or times out mid-run.
	CanceledError = gpu.CanceledError
	// UnknownWorkloadError is returned by WorkloadByName (and RunSpec
	// validation) for a name not in Table II; it lists the valid names.
	UnknownWorkloadError = kernels.UnknownWorkloadError
	// StuckKernel describes one stuck kernel inside a DeadlockError.
	StuckKernel = gpu.StuckKernel
	// Sample is one window of a run's sampled timeline
	// (SimOptions.SampleEvery, Result.Timeline).
	Sample = gpu.Sample
	// ReuseStats breaks classified cache hits down by the relationship
	// between the accessing kernel instance and the line's installer
	// (SimOptions.Attribution, Result.L1Reuse/L2Reuse).
	ReuseStats = mem.ReuseStats
	// ReuseClass labels one such relationship.
	ReuseClass = mem.ReuseClass
	// TraceRecorder accumulates structured run events and exports them as
	// JSON Lines or Chrome/Perfetto trace_event JSON.
	TraceRecorder = trace.Recorder
	// RunSpec is a versioned, JSON-serializable description of one run:
	// workload, scale, model, scheduler (name + params), and simulation
	// options. Validate it, Hash it for content addressing, or Build it
	// into a ready-to-run *Simulator. The lapermd service accepts RunSpec
	// JSON on POST /v1/runs.
	RunSpec = spec.RunSpec
	// SchedulerParams tunes the scheduler named in a RunSpec.
	SchedulerParams = spec.SchedulerParams
	// SchedulerInfo describes one entry of the scheduler registry: name,
	// description, metadata flags, and factory.
	SchedulerInfo = core.SchedulerInfo
	// ModelInfo describes one entry of the launch-model registry: name,
	// description, and launch-path descriptor.
	ModelInfo = gpu.ModelInfo
	// LaunchPath describes how a launch model routes device-side child
	// launches (direct pool vs KMU, capacity, latency, overflow policy).
	LaunchPath = gpu.LaunchPath
	// SweepSpec is a versioned description of a parameter sweep: one base
	// RunSpec plus axes whose cross product the lapermd service expands
	// server-side (POST /v1/sweeps). Each expanded cell is an ordinary
	// content-addressed RunSpec, so identical cells dedupe across sweeps.
	SweepSpec = spec.SweepSpec
	// SweepAxis is one axis of a SweepSpec: a RunSpec field name (see
	// SweepAxisFields) and the values it ranges over.
	SweepAxis = spec.SweepAxis
)

// CurrentSpecVersion is the RunSpec schema version this build writes and the
// newest it accepts (see internal/spec for the compatibility policy).
const CurrentSpecVersion = spec.CurrentVersion

// ParseRunSpec decodes a RunSpec from JSON, rejecting unknown fields. The
// result is not yet validated; call Validate (or Build) next.
func ParseRunSpec(data []byte) (RunSpec, error) { return spec.Parse(data) }

// ParseSweepSpec decodes a SweepSpec from JSON, rejecting unknown fields.
// The result is not yet validated; call Validate (or Expand) next.
func ParseSweepSpec(data []byte) (SweepSpec, error) { return spec.ParseSweep(data) }

// SweepAxisFields lists the RunSpec fields a sweep axis may range over, in
// the order they appear in the canonical form.
func SweepAxisFields() []string { return spec.AxisFields() }

// Cache-hit reuse classes.
const (
	// ReuseSelf: the accessing instance installed the line itself.
	ReuseSelf = mem.ReuseSelf
	// ReuseParentChild: installer and accessor are direct parent/child.
	ReuseParentChild = mem.ReuseParentChild
	// ReuseSibling: installer and accessor share a direct parent.
	ReuseSibling = mem.ReuseSibling
	// ReuseCross: any other relationship (including untagged installs).
	ReuseCross = mem.ReuseCross
)

// Launch-queue overflow policies.
const (
	// StallWarp stalls the launching warp until an entry frees (the
	// hardware-faithful default).
	StallWarp = config.StallWarp
	// DropToKMU demotes an overflowing DTBL TB-group launch to the CDP
	// device-kernel path.
	DropToKMU = config.DropToKMU
)

// Dynamic-parallelism models.
const (
	// CDP launches children as device kernels through the KMU and KDU.
	CDP = gpu.CDP
	// DTBL launches children as lightweight thread-block groups.
	DTBL = gpu.DTBL
	// PMK launches children through a persistent microkernel's device-side
	// task queue, bypassing the KMU entirely.
	PMK = gpu.PMK
)

// Workload scales.
const (
	ScaleTiny   = kernels.ScaleTiny
	ScaleSmall  = kernels.ScaleSmall
	ScaleMedium = kernels.ScaleMedium
)

// KeplerK20c returns the Table I baseline configuration.
func KeplerK20c() Config { return config.KeplerK20c() }

// NewSimulator builds a simulator, returning an error on an invalid
// configuration or missing scheduler; see gpu.New.
func NewSimulator(opts SimOptions) (*Simulator, error) { return gpu.New(opts) }

// MustNewSimulator builds a simulator, panicking where NewSimulator would
// return an error — for tests and known-good configurations.
func MustNewSimulator(opts SimOptions) *Simulator { return gpu.MustNew(opts) }

// NewTB returns a builder for a thread block with the given thread count.
func NewTB(threads int) *TBBuilder { return isa.NewTB(threads) }

// NewKernel returns a builder for a named grid.
func NewKernel(name string) *KernelBuilder { return isa.NewKernel(name) }

// NewRoundRobin returns the baseline round-robin TB scheduler.
func NewRoundRobin() Scheduler { return core.NewRoundRobin() }

// NewTBPri returns the TB Prioritizing scheduler (Section IV-A).
func NewTBPri(maxLevels int) Scheduler { return core.NewTBPri(maxLevels) }

// NewSMXBind returns the Prioritized SMX Binding scheduler (Section IV-B).
func NewSMXBind(numSMX, maxLevels int) Scheduler { return core.NewSMXBind(numSMX, maxLevels) }

// NewAdaptiveBind returns the Adaptive Prioritized SMX Binding scheduler
// (Section IV-C).
func NewAdaptiveBind(numSMX, maxLevels int) Scheduler {
	return core.NewAdaptiveBind(numSMX, maxLevels)
}

// NewWorkSteal returns the work-stealing task-queue scheduler: per-SMX
// deques, owner pops newest, thieves steal oldest in cluster-distance order.
func NewWorkSteal(numSMX int) Scheduler { return core.NewWorkSteal(numSMX) }

// NewScheduler builds a scheduler by its registered name (see
// SchedulerNames).
func NewScheduler(name string, cfg *Config) (Scheduler, error) {
	return core.NewSchedulerFor(name, cfg)
}

// Schedulers returns every registered TB scheduling policy's descriptor, in
// registration order.
func Schedulers() []SchedulerInfo { return core.Schedulers() }

// SchedulerNames returns every registered TB scheduler name, in registration
// order.
func SchedulerNames() []string { return core.SchedulerNames() }

// Models returns every registered launch-model handle, in registration
// order.
func Models() []Model { return gpu.Models() }

// ModelInfos returns every registered launch model's descriptor, in
// registration order.
func ModelInfos() []ModelInfo { return gpu.ModelInfos() }

// ModelNames returns every registered launch-model name, in registration
// order.
func ModelNames() []string { return gpu.ModelNames() }

// Workloads returns every Table II workload.
func Workloads() []Workload { return kernels.All() }

// WorkloadByName returns the named Table II workload. An unknown name yields
// a structured *UnknownWorkloadError listing the valid names; inspect it with
// errors.As.
func WorkloadByName(name string) (Workload, error) { return kernels.Lookup(name) }

// AnalyzeFootprint computes the Section III-A shared-footprint ratios for a
// workload program.
func AnalyzeFootprint(name string, k *Kernel) FootprintStats {
	return metrics.AnalyzeFootprint(name, k)
}

// Experiments returns the per-table/figure experiment runners.
func Experiments() []Experiment { return exp.All() }

// NewTraceRecorder returns an empty trace recorder; attach its hooks via
// SimOptions.TraceDispatch/TraceQueue/TraceBlockDone/TraceSample and call
// FinishRun after Run.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }
