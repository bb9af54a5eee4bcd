// Package core implements the paper's primary contribution: the thread-block
// scheduling policies evaluated in LaPerm (Section IV). The paper builds each
// policy on the one before it, and the package follows that structure with
// one type per placement strategy; the registered policies are presets of
// them.
//
//   - TBPri holds global priority queues with round-robin SMX placement. With
//     L+1 levels it serves "tb-pri" (Section IV-A): dynamic TBs dispatch
//     before the remaining parent TBs, exploiting temporal parent-child
//     locality in the shared L2. With one level it serves "rr", the FCFS
//     baseline of today's GPUs (Section II-B).
//   - AdaptiveBind holds bound queue banks (Figure 5(c)): child TBs queue on
//     the SMX cluster that executed their direct parent, exposing
//     parent-child and child-sibling locality to that cluster's L1. Its
//     stage-3 Backup setting picks the preset: none serves "smx-bind"
//     (Section IV-B); sticky serves "adaptive-bind" (Section IV-C), whose
//     three-stage flow of Figure 6 recovers SMX load balance; free is the
//     backup ablation.
//   - WorkSteal serves "work-steal": per-SMX deques popped at both ends with
//     cluster-distance victim order, sharing no queue logic with the banks.
//
// Throttled wraps any of them with a residency cap. Every type implements
// gpu.TBScheduler and gpu.IdleAware; the registry (registry.go) builds them
// by name.
package core

import (
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// fifo is a FCFS queue of kernel instances that lazily drops exhausted
// entries (instances whose every TB has been dispatched). Dispatch order is
// FCFS, so exhausted entries cluster at the front; trimming the head keeps
// accesses amortised O(1), with an occasional full compaction for interior
// garbage left by concurrent-kernel fill-in.
type fifo struct {
	items []*gpu.KernelInstance
}

func (f *fifo) push(k *gpu.KernelInstance) { f.items = append(f.items, k) }

// trim pops exhausted instances off the front.
func (f *fifo) trim() {
	i := 0
	for i < len(f.items) && f.items[i].Exhausted() {
		i++
	}
	if i > 0 {
		f.items = f.items[i:]
	}
}

// compact removes exhausted instances everywhere.
func (f *fifo) compact() {
	keep := f.items[:0]
	for _, k := range f.items {
		if !k.Exhausted() {
			keep = append(keep, k)
		}
	}
	f.items = keep
}

// dispatchWindow bounds how many live kernels a dispatch slot may examine
// for fill-in before giving up. Hardware kernel distributors consider a
// small window of independent kernels (the KDU holds 32 entries total), not
// the entire pending queue; the bound also keeps a full machine from
// costing O(queue) every cycle.
const dispatchWindow = 8

// scan calls fn on up to dispatchWindow live instances in FCFS order until
// fn returns true, reporting whether any call did.
func (f *fifo) scan(fn func(*gpu.KernelInstance) bool) bool {
	f.trim()
	skipped, tried := 0, 0
	for _, k := range f.items {
		if k.Exhausted() {
			skipped++
			continue
		}
		if fn(k) {
			return true
		}
		tried++
		if tried >= dispatchWindow {
			break
		}
	}
	if skipped > 32 {
		f.compact()
	}
	return false
}

// head returns the first live instance, or nil.
func (f *fifo) head() *gpu.KernelInstance {
	f.trim()
	if len(f.items) == 0 {
		return nil
	}
	return f.items[0]
}

func (f *fifo) empty() bool { return f.head() == nil }

// scanSMX returns the first SMX after `cursor` (wrapping) with room for tb.
func scanSMX(d gpu.Dispatcher, cursor int, tb *isa.TB) (int, bool) {
	n := d.NumSMX()
	for i := 1; i <= n; i++ {
		s := (cursor + i) % n
		if d.CanFit(s, tb) {
			return s, true
		}
	}
	return 0, false
}

// TBPri is the global-priority-queue scheduler: priority levels of FCFS
// kernel queues (Figure 5(b)) with round-robin SMX placement. Dynamic TBs
// carry priority parent+1 (clamped to the top level) and dispatch before
// lower-priority TBs. With L+1 levels it is TB-Pri; with a single level every
// kernel shares one FCFS queue and it is the RR baseline.
type TBPri struct {
	name   string
	levels []fifo // index = priority
	cursor int
}

// NewTBPri returns a TB-Pri scheduler with priorities 0..maxLevels.
func NewTBPri(maxLevels int) *TBPri {
	return &TBPri{name: "tb-pri", levels: make([]fifo, maxLevels+1), cursor: -1}
}

// NewRoundRobin returns the baseline scheduler of today's GPUs: one level,
// so kernels dispatch in KDU order (FCFS), one TB per slot in increasing
// TB-ID order, each on the next SMX with enough available resources.
func NewRoundRobin() *TBPri { return &TBPri{name: "rr", levels: make([]fifo, 1), cursor: -1} }

// Name implements gpu.TBScheduler.
func (t *TBPri) Name() string { return t.name }

// Enqueue implements gpu.TBScheduler.
func (t *TBPri) Enqueue(k *gpu.KernelInstance) {
	p := clampPriority(k.Priority, len(t.levels)-1)
	t.levels[p].push(k)
}

// Select implements gpu.TBScheduler: highest priority level first, FCFS
// within a level, round-robin SMX placement. Within a level the first kernel
// whose next TB fits anywhere wins, so later kernels fill leftover resources
// (the concurrent-kernel execution of Section II-B), and a level whose TBs
// fit nowhere falls through to the next so free resources are never idled by
// a too-large high-priority TB.
func (t *TBPri) Select(d gpu.Dispatcher) (*gpu.KernelInstance, int) {
	for p := len(t.levels) - 1; p >= 0; p-- {
		var pick *gpu.KernelInstance
		var pickSMX int
		t.levels[p].scan(func(k *gpu.KernelInstance) bool {
			if s, ok := scanSMX(d, t.cursor, k.PeekTB()); ok {
				pick, pickSMX = k, s
				return true
			}
			return false
		})
		if pick != nil {
			t.cursor = pickSMX
			return pick, pickSMX
		}
	}
	return nil, 0
}

func clampPriority(p, max int) int {
	if p < 0 {
		return 0
	}
	if p > max {
		return max
	}
	return p
}

// bindQueues is the SMX-bound priority-queue bank of Figure 5(c): priority
// queue 0 is global and reserved for top-level (host-launched) kernels;
// queues 1..L are replicated per SMX cluster and hold the dynamic TBs bound
// to that cluster. With one SMX per cluster (the K20c arrangement) the banks
// are per-SMX; on architectures whose L1 is shared by an SMX cluster,
// Section IV-B binds new TBs to the whole cluster.
type bindQueues struct {
	global      fifo
	perBank     [][]fifo // [cluster][priority-1]
	clusterSize int
}

func newBindQueues(numSMX, smxsPerCluster, maxLevels int) *bindQueues {
	if smxsPerCluster < 1 || numSMX%smxsPerCluster != 0 {
		panic("core: SMXs per cluster must be positive and divide the SMX count")
	}
	b := &bindQueues{
		perBank:     make([][]fifo, numSMX/smxsPerCluster),
		clusterSize: smxsPerCluster,
	}
	for i := range b.perBank {
		b.perBank[i] = make([]fifo, maxLevels)
	}
	return b
}

// bankOf returns the queue bank serving an SMX.
func (b *bindQueues) bankOf(smx int) int { return smx / b.clusterSize }

func (b *bindQueues) enqueue(k *gpu.KernelInstance) {
	if k.Parent == nil || k.BoundSMX < 0 {
		b.global.push(k)
		return
	}
	bank := b.bankOf(k.BoundSMX)
	p := clampPriority(k.Priority, len(b.perBank[bank]))
	if p < 1 {
		p = 1
	}
	b.perBank[bank][p-1].push(k)
}

// highestBank returns the highest-priority live instance in a bank.
func (b *bindQueues) highestBank(bank int) *gpu.KernelInstance {
	qs := b.perBank[bank]
	for p := len(qs) - 1; p >= 0; p-- {
		if k := qs[p].head(); k != nil {
			return k
		}
	}
	return nil
}

// bankEmpty reports whether a bank has no live instances.
func (b *bindQueues) bankEmpty(bank int) bool { return b.highestBank(bank) == nil }

// Backup is a bound-bank scheduler's stage-3 setting (Figure 6): what an SMX
// does when its own queues and the global parent queue are both empty. It is
// fixed at construction.
type Backup int

const (
	// BackupNone never dispatches a bound TB outside its cluster: SMX-Bind.
	BackupNone Backup = iota
	// BackupSticky records one backup bank per SMX and drains it until it
	// empties: Adaptive-Bind.
	BackupSticky
	// BackupFree re-scans for any non-empty bank every slot instead of
	// draining a recorded one. The paper argues stickiness both preserves
	// stolen-sibling locality and avoids reconfiguration overhead; this
	// setting exists for the ablation that checks the claim.
	BackupFree
)

// AdaptiveBind is the bound-queue-bank scheduler: child TBs queue on the SMX
// cluster that executed their direct parent, reusing its L1, and host-kernel
// TBs fill SMXs with no bound work. Its stage-3 setting selects the preset:
// without a backup it is Prioritized SMX Binding (Section IV-B); with the
// sticky backup it is Adaptive Prioritized SMX Binding (Section IV-C), where
// an SMX whose own and global queues are empty adopts another bank as its
// backup and drains it (stealing child TBs bound elsewhere), keeping all SMXs
// busy at the cost of some L1 reuse.
type AdaptiveBind struct {
	q      *bindQueues
	stage3 Backup
	cursor int
	// backup[smx] is the recorded backup bank whose queues smx is
	// draining, or -1.
	backup []int
	// Steals counts stage-3 dispatches, for the load-balance analysis.
	Steals int64
}

// NewSMXBind returns an SMX-Bind scheduler for numSMX SMXs with private L1s
// and priorities 1..maxLevels.
func NewSMXBind(numSMX, maxLevels int) *AdaptiveBind {
	return NewBindClusters(numSMX, 1, maxLevels, BackupNone)
}

// NewAdaptiveBind returns an Adaptive-Bind scheduler for numSMX SMXs with
// private L1s and priorities 1..maxLevels.
func NewAdaptiveBind(numSMX, maxLevels int) *AdaptiveBind {
	return NewBindClusters(numSMX, 1, maxLevels, BackupSticky)
}

// NewBindClusters returns a bound-bank scheduler with the given stage-3
// setting for an architecture whose L1 is shared by clusters of
// smxsPerCluster SMXs: child TBs bind to their direct parent's cluster and
// may run on any of its SMXs.
func NewBindClusters(numSMX, smxsPerCluster, maxLevels int, stage3 Backup) *AdaptiveBind {
	backup := make([]int, numSMX)
	for i := range backup {
		backup[i] = -1
	}
	return &AdaptiveBind{q: newBindQueues(numSMX, smxsPerCluster, maxLevels), stage3: stage3, backup: backup}
}

// Name implements gpu.TBScheduler.
func (a *AdaptiveBind) Name() string {
	if a.stage3 == BackupNone {
		return "smx-bind"
	}
	return "adaptive-bind"
}

// Enqueue implements gpu.TBScheduler.
func (a *AdaptiveBind) Enqueue(k *gpu.KernelInstance) { a.q.enqueue(k) }

// Select implements gpu.TBScheduler, following Figure 6 stage by stage for
// the one SMX considered this slot (round-robin). A TB found in stage 1 or 2
// that does not currently fit waits for that SMX; it is never redirected.
func (a *AdaptiveBind) Select(d gpu.Dispatcher) (*gpu.KernelInstance, int) {
	cur := a.cursor
	a.cursor = (a.cursor + 1) % d.NumSMX()

	// Stage 1: highest-priority TB in the current SMX's own queues.
	if k := a.q.highestBank(a.q.bankOf(cur)); k != nil {
		if d.CanFit(cur, k.PeekTB()) {
			return k, cur
		}
		return nil, 0
	}
	// Stage 2: parent TB from the global queue.
	if k := a.q.global.head(); k != nil {
		if d.CanFit(cur, k.PeekTB()) {
			return k, cur
		}
		return nil, 0
	}
	// Stage 3: drain the recorded backup bank's queues; when exhausted,
	// record the next non-empty bank as the new backup.
	switch a.stage3 {
	case BackupNone:
		return nil, 0
	case BackupSticky:
		if b := a.backup[cur]; b >= 0 && !a.q.bankEmpty(b) {
			return a.steal(d, cur, b)
		}
	}
	a.backup[cur] = -1
	myBank := a.q.bankOf(cur)
	nb := len(a.q.perBank)
	for i := 1; i < nb; i++ {
		b := (myBank + i) % nb
		if !a.q.bankEmpty(b) {
			a.backup[cur] = b
			return a.steal(d, cur, b)
		}
	}
	return nil, 0
}

// steal dispatches the highest-priority TB of backup bank b onto SMX cur.
func (a *AdaptiveBind) steal(d gpu.Dispatcher, cur, b int) (*gpu.KernelInstance, int) {
	k := a.q.highestBank(b)
	if k == nil || !d.CanFit(cur, k.PeekTB()) {
		return nil, 0
	}
	a.Steals++
	return k, cur
}

// --- gpu.IdleAware implementations ---
//
// The fast-forward clock elides Select calls on provably idle cycles; each
// scheduler here declares how many consecutive nil Selects prove quiescence
// and how to replay the elided calls' state effect in O(1).
//
// TBPri consults every SMX from a single global view and moves its placement
// cursor only on success, so one nil Select with unchanged dispatch state
// implies all later ones: period 1, replay a no-op. (The lazy fifo trimming a
// nil Select performs is idempotent, so eliding repeats of it changes nothing
// observable.)
//
// AdaptiveBind considers one SMX per Select and advances its round-robin
// cursor even on a nil slot, so only a full fruitless round over all SMXs
// proves quiescence: period = SMX count, and the elided calls' only
// surviving effect is that cursor advance, replayed modulo the SMX count.
// The stage-3 backup recording reaches a per-SMX fixed point within that
// same first nil round (with frozen queues, each slot's scan re-records the
// same backup bank and fails the same CanFit check), so no replay is needed
// for it; without a backup the recordings are never written.

// IdleSelectPeriod implements gpu.IdleAware.
func (t *TBPri) IdleSelectPeriod() int { return 1 }

// SkipIdleSelects implements gpu.IdleAware (no cursor motion on nil).
func (t *TBPri) SkipIdleSelects(uint64) {}

// SkipEmptySelects implements gpu.IdleAware: a Select with nothing enqueued
// only performs the idempotent lazy fifo trim, deferred safely to the next
// real call.
func (t *TBPri) SkipEmptySelects(uint64) {}

// advanceCursor replays n cursor increments modulo the SMX count.
func advanceCursor(cursor int, n uint64, numSMX int) int {
	return int((uint64(cursor) + n) % uint64(numSMX))
}

// IdleSelectPeriod implements gpu.IdleAware: one full round over the SMXs.
func (a *AdaptiveBind) IdleSelectPeriod() int { return len(a.backup) }

// SkipIdleSelects implements gpu.IdleAware: cursor advance only — the
// backup bank recordings are already at their fixed point after the nil
// round that proved quiescence.
func (a *AdaptiveBind) SkipIdleSelects(n uint64) {
	a.cursor = advanceCursor(a.cursor, n, len(a.backup))
}

// SkipEmptySelects implements gpu.IdleAware. With nothing enqueued, every
// bank is empty, so each elided call would have cleared the considered
// SMX's backup recording (stage 3 finds no non-empty bank) and advanced the
// cursor; n >= one full round clears every recording. Without a backup the
// recordings stay -1 and clearing them is a no-op.
func (a *AdaptiveBind) SkipEmptySelects(n uint64) {
	nb := uint64(len(a.backup))
	r := n
	if r > nb {
		r = nb
	}
	for i := uint64(0); i < r; i++ {
		a.backup[(uint64(a.cursor)+i)%nb] = -1
	}
	a.cursor = advanceCursor(a.cursor, n, len(a.backup))
}

// Compile-time interface checks.
var (
	_ gpu.TBScheduler = (*TBPri)(nil)
	_ gpu.TBScheduler = (*AdaptiveBind)(nil)
	_ gpu.IdleAware   = (*TBPri)(nil)
	_ gpu.IdleAware   = (*AdaptiveBind)(nil)
)
