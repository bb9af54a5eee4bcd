package core

import (
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// Throttled wraps any TB scheduler with a contention-aware cap on resident
// thread blocks per SMX, below the hardware occupancy limit. Section IV-F
// discusses incorporating such contention-based TB control into LaPerm: the
// small L1 (at most 48 KB on Kepler) "may result in not fitting enough
// reusable data of the parent and child TBs", which a lower residency cap
// mitigates at some parallelism cost.
type Throttled struct {
	// Inner is the wrapped policy.
	Inner gpu.TBScheduler
	// MaxTBsPerSMX caps the thread blocks concurrently resident on one
	// SMX.
	MaxTBsPerSMX int

	// view is the dispatcher Select hands the inner policy, kept here so
	// a Select allocates nothing.
	view throttledDispatcher
}

// NewThrottled wraps inner with a residency cap. It panics on a
// non-positive cap, which would deadlock dispatch.
func NewThrottled(inner gpu.TBScheduler, maxTBsPerSMX int) *Throttled {
	if maxTBsPerSMX <= 0 {
		panic("core: Throttled requires a positive TB cap")
	}
	return &Throttled{Inner: inner, MaxTBsPerSMX: maxTBsPerSMX}
}

// Name implements gpu.TBScheduler.
func (t *Throttled) Name() string { return t.Inner.Name() + "+throttle" }

// Enqueue implements gpu.TBScheduler.
func (t *Throttled) Enqueue(k *gpu.KernelInstance) { t.Inner.Enqueue(k) }

// Select implements gpu.TBScheduler by delegating to the wrapped policy
// through a dispatcher view on which saturated SMXs report no room.
func (t *Throttled) Select(d gpu.Dispatcher) (*gpu.KernelInstance, int) {
	t.view = throttledDispatcher{Dispatcher: d, cap: t.MaxTBsPerSMX}
	return t.Inner.Select(&t.view)
}

// IdleSelectPeriod implements gpu.IdleAware by delegation. The residency cap
// only changes the CanFit answers the inner policy sees, and resident-TB
// counts are frozen exactly when dispatch state is frozen, so the inner
// policy's quiescence argument carries over unchanged. A non-IdleAware inner
// policy opts the wrapper out (period 0).
func (t *Throttled) IdleSelectPeriod() int {
	if ia, ok := t.Inner.(gpu.IdleAware); ok {
		return ia.IdleSelectPeriod()
	}
	return 0
}

// SkipIdleSelects implements gpu.IdleAware by delegation.
func (t *Throttled) SkipIdleSelects(n uint64) {
	if ia, ok := t.Inner.(gpu.IdleAware); ok {
		ia.SkipIdleSelects(n)
	}
}

// SkipEmptySelects implements gpu.IdleAware by delegation (the wrapper adds
// no per-call state of its own).
func (t *Throttled) SkipEmptySelects(n uint64) {
	if ia, ok := t.Inner.(gpu.IdleAware); ok {
		ia.SkipEmptySelects(n)
	}
}

type throttledDispatcher struct {
	gpu.Dispatcher
	cap int
}

func (t *throttledDispatcher) CanFit(smxID int, tb *isa.TB) bool {
	if t.Dispatcher.ResidentTBs(smxID) >= t.cap {
		return false
	}
	return t.Dispatcher.CanFit(smxID, tb)
}

var (
	_ gpu.TBScheduler = (*Throttled)(nil)
	_ gpu.IdleAware   = (*Throttled)(nil)
)
