package core

// The scheduler registry. Every TB scheduling policy is a registry entry:
// a name, a factory taking the GPU configuration, and the metadata the rest
// of the stack needs to enumerate, validate, and conformance-check policies
// without hard-coded name lists. internal/spec validates RunSpecs against
// it, internal/exp derives its evaluation axes from it, the facade and the
// CLIs list it in -h output, and the conformance/idle/fuzz tests iterate it
// so a newly registered policy is checked automatically.
//
// Registering a scheduler is a contract (DESIGN.md §14):
//
//   - Determinism: Select must be a pure function of the scheduler's own
//     state and the Dispatcher's answers — no clocks, maps iterated in
//     random order, or other nondeterminism — so runs are byte-identical
//     at any worker count.
//   - gpu.TBScheduler: Select returns a non-exhausted instance and an SMX
//     where CanFit holds, or (nil, 0).
//   - IdleAware declaration: a policy implementing gpu.IdleAware must
//     replay elided Select calls exactly (the idle-twin tests enforce
//     this); the metadata flag below must match the implementation.
//   - Zero-alloc steady state: Select and Enqueue must not allocate per
//     call once warm (amortised queue growth aside); the per-cell
//     allocation budgets in internal/exp pin this.

import (
	"fmt"

	"laperm/internal/config"
	"laperm/internal/gpu"
)

// SchedulerInfo describes one registered TB scheduling policy.
type SchedulerInfo struct {
	// Name is the policy's registry key ("adaptive-bind"), used in specs,
	// CLIs, CSV columns, and error messages.
	Name string
	// Description is a one-line summary for -h output and README tables.
	Description string
	// IdleAware reports that instances implement gpu.IdleAware, letting
	// the event-horizon clock elide provably-nil Select calls. The
	// registry test asserts the flag matches the constructed type.
	IdleAware bool
	// Binding reports that the policy supports SMX binding: it places
	// child TBs on the SMX cluster that executed their parent when it
	// can (Section IV-B locality placement).
	Binding bool
	// StrictBinding reports that a bound TB never dispatches outside its
	// cluster, even with the rest of the machine idle (SMX-Bind; the
	// stealing policies deliberately relax this).
	StrictBinding bool
	// ChildFirst reports that dynamic TBs dispatch ahead of remaining
	// parent TBs on SMXs where both are eligible (Section IV-A; false
	// only for the strictly-FCFS RR baseline).
	ChildFirst bool
	// New builds a fresh instance for the configuration. The relevant
	// parameters are NumSMX, SMXsPerCluster, and MaxPriorityLevels.
	New func(cfg *config.GPU) gpu.TBScheduler
}

// schedulerRegistry holds every registered policy in registration order: the
// paper's presentation order (baseline, then the three LaPerm schemes), then
// extensions. Enumeration order everywhere follows it.
var schedulerRegistry = []SchedulerInfo{
	{
		Name:        "rr",
		Description: "baseline round-robin: FCFS over kernels, TBs fanned to the next SMX with room",
		IdleAware:   true,
		New:         func(*config.GPU) gpu.TBScheduler { return NewRoundRobin() },
	},
	{
		Name:        "tb-pri",
		Description: "TB Prioritizing: dynamic TBs dispatch before remaining parent TBs (Section IV-A)",
		IdleAware:   true,
		ChildFirst:  true,
		New:         func(cfg *config.GPU) gpu.TBScheduler { return NewTBPri(cfg.MaxPriorityLevels) },
	},
	{
		Name:          "smx-bind",
		Description:   "Prioritized SMX Binding: child TBs run only on their parent's SMX cluster (Section IV-B)",
		IdleAware:     true,
		Binding:       true,
		StrictBinding: true,
		ChildFirst:    true,
		New: func(cfg *config.GPU) gpu.TBScheduler {
			return NewBindClusters(cfg.NumSMX, cfg.SMXsPerCluster, cfg.MaxPriorityLevels, BackupNone)
		},
	},
	{
		Name:        "adaptive-bind",
		Description: "Adaptive SMX Binding: SMX-Bind plus sticky backup-bank stealing for load balance (Section IV-C)",
		IdleAware:   true,
		Binding:     true,
		ChildFirst:  true,
		New: func(cfg *config.GPU) gpu.TBScheduler {
			return NewBindClusters(cfg.NumSMX, cfg.SMXsPerCluster, cfg.MaxPriorityLevels, BackupSticky)
		},
	},
	{
		Name:        "work-steal",
		Description: "work-stealing task queues: per-SMX deques, owner pops newest, thieves steal oldest in cluster-distance order",
		IdleAware:   true,
		Binding:     true,
		ChildFirst:  true,
		New: func(cfg *config.GPU) gpu.TBScheduler {
			return NewWorkStealClusters(cfg.NumSMX, cfg.SMXsPerCluster)
		},
	},
}

// RegisterScheduler adds a policy to the registry. It panics on a duplicate
// or empty name or a nil factory — registration is an init-time programming
// act, not a runtime input.
func RegisterScheduler(info SchedulerInfo) {
	if info.Name == "" {
		panic("core: RegisterScheduler with empty name")
	}
	if info.New == nil {
		panic(fmt.Sprintf("core: RegisterScheduler(%q) with nil factory", info.Name))
	}
	if _, ok := SchedulerByName(info.Name); ok {
		panic(fmt.Sprintf("core: RegisterScheduler(%q) duplicates a registered scheduler", info.Name))
	}
	schedulerRegistry = append(schedulerRegistry, info)
}

// Schedulers returns every registered policy in registration order. The
// slice is fresh; callers may keep or mutate it.
func Schedulers() []SchedulerInfo {
	return append([]SchedulerInfo(nil), schedulerRegistry...)
}

// SchedulerNames returns every registered policy name in registration order.
func SchedulerNames() []string {
	names := make([]string, len(schedulerRegistry))
	for i, info := range schedulerRegistry {
		names[i] = info.Name
	}
	return names
}

// SchedulerByName resolves a policy name against the registry.
func SchedulerByName(name string) (SchedulerInfo, bool) {
	for _, info := range schedulerRegistry {
		if info.Name == name {
			return info, true
		}
	}
	return SchedulerInfo{}, false
}

// NewSchedulerFor builds the named policy for a configuration — the one
// scheduler factory everything above this package funnels through.
func NewSchedulerFor(name string, cfg *config.GPU) (gpu.TBScheduler, error) {
	info, ok := SchedulerByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown scheduler %q (registered: %v)", name, SchedulerNames())
	}
	return info.New(cfg), nil
}
