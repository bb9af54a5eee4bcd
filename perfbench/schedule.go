package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/spec"
)

// Op schedules. Every list of ops is a pure function of (workload, seed):
// the seed only permutes a fixed multiset of ops, and an untraced run
// completes whole blocks, so runs with different seeds do the same work in
// a different order and their metrics compare.

// cell is one simulation: a launch model, a Table II workload and a TB
// scheduler.
type cell struct{ Model, Workload, Scheduler string }

func (c cell) key() string { return c.Model + "/" + c.Workload + "/" + c.Scheduler }

// cells enumerates models × workloads × schedulers in registry order.
func cells(models []string) []cell {
	var out []cell
	for _, m := range models {
		for _, w := range kernels.Names() {
			for _, s := range spec.SchedulerNames() {
				out = append(out, cell{m, w, s})
			}
		}
	}
	return out
}

// perm is the seeded permutation of n items for one stream of a schedule.
func perm(seed, stream uint64, n int) []int {
	return rand.New(rand.NewPCG(seed, stream)).Perm(n)
}

// blockPlan is a schedule whose block b is a seeded permutation of one fixed
// list: every block runs each item exactly once.
type blockPlan[T any] struct {
	items []T
	seed  uint64
	b     int
	order []int
}

func newBlockPlan[T any](items []T, seed uint64) *blockPlan[T] {
	return &blockPlan[T]{items: items, seed: seed, b: -1}
}

func (p *blockPlan[T]) blockLen() int { return len(p.items) }

// at returns op i. Blocks are generated on demand; ops are requested in
// order, so only the current block's permutation is kept.
func (p *blockPlan[T]) at(i int) T {
	if b := i / len(p.items); b != p.b {
		p.b, p.order = b, perm(p.seed, uint64(b), len(p.items))
	}
	return p.items[p.order[i%len(p.items)]]
}

// expOp is one experiment run on one workload at tiny scale.
type expOp struct{ ID, Workload string }

func (o expOp) key() string { return o.ID + "/" + o.Workload }

// expIDs are the experiments experiments-tiny draws: every figure and
// sensitivity study, leaving out the two static tables.
var expIDs = []string{"fig2", "fig7", "fig8", "fig9a", "fig9b",
	"latency", "balance", "levels", "clusters", "warp", "throttle", "backup"}

func expOps() []expOp {
	var out []expOp
	for _, id := range expIDs {
		for _, w := range kernels.Names() {
			out = append(out, expOp{id, w})
		}
	}
	return out
}

// Service-mix step kinds and their share of every block of svcBlock steps.
// Each kind stands for a caller in the repository: cold and cached for a
// RunSpec POSTed and awaited, then POSTed again (README's curl flow, CI's
// serve job); coalesce for an identical RunSpec POSTed while the first still
// runs; sweep for two overlapping `laperm-experiments -server` sweeps from
// two tenants (CI's sweep-smoke job). The 50/20/20/10 shares are assumed:
// no traffic has been recorded to take them from.
const (
	stepCold     = "cold"
	stepCoalesce = "coalesce"
	stepCached   = "cached"
	stepSweep    = "sweep"
)

var svcKinds = []string{
	stepCold, stepCold, stepCold, stepCold, stepCold,
	stepCoalesce, stepCoalesce, stepCached, stepCached, stepSweep,
}

const svcBlock = 10

// runOp is one run submission: a tiny cell under a max_cycles budget. Each
// new submission gets a budget no other has, which gives it its own content
// hash (so it is never cached or coalesced by accident) without changing
// what it simulates: every tiny cell ends far below the budget.
type runOp struct {
	Cell      cell
	MaxCycles uint64
}

func (o runOp) spec() spec.RunSpec {
	return spec.RunSpec{Workload: o.Cell.Workload, Scale: "tiny", Model: o.Cell.Model,
		Scheduler: o.Cell.Scheduler, MaxCycles: o.MaxCycles}
}

// sweepOp is the sweep `laperm-experiments -server -scale tiny -workloads
// W1,W2` submits: two workloads × every registered scheduler on the default
// launch model, under one fair-share tenant.
type sweepOp struct {
	Tenant    string
	Workloads [2]string
	MaxCycles uint64
}

func (o sweepOp) spec() spec.SweepSpec {
	axis := func(field string, names []string) spec.SweepAxis {
		a := spec.SweepAxis{Field: field}
		for _, n := range names {
			v, _ := json.Marshal(n) // a string always marshals
			a.Values = append(a.Values, v)
		}
		return a
	}
	return spec.SweepSpec{
		Tenant: o.Tenant,
		Base:   spec.RunSpec{Scale: "tiny", MaxCycles: o.MaxCycles},
		Axes:   []spec.SweepAxis{axis("workload", o.Workloads[:]), axis("scheduler", spec.SchedulerNames())},
	}
}

// cells lists the sweep's cells as runOps, in expansion order.
func (o sweepOp) cells() []runOp {
	var out []runOp
	for _, w := range o.Workloads {
		for _, s := range spec.SchedulerNames() {
			out = append(out, runOp{cell{spec.DefaultModel, w, s}, o.MaxCycles})
		}
	}
	return out
}

// svcStep is one lockstep step of the two service-mix clients.
//   - cold: A and B each submit a new run.
//   - coalesce: A submits a new run and B submits the same one once A's
//     POST has returned.
//   - cached: A and B each submit a run finished in an earlier step.
//   - sweep: A and B each submit a sweep, as two tenants, at once. The
//     sweeps share one workload, so each cell of it runs once for both.
type svcStep struct {
	Kind   string
	A, B   runOp
	Sweeps [2]sweepOp
}

func (s svcStep) String() string {
	if s.Kind == stepSweep {
		a, b := s.Sweeps[0], s.Sweeps[1]
		return fmt.Sprintf("%s %s:%v | %s:%v @%d", s.Kind, a.Tenant, a.Workloads, b.Tenant, b.Workloads, a.MaxCycles)
	}
	return fmt.Sprintf("%s %s@%d | %s@%d", s.Kind, s.A.Cell.key(), s.A.MaxCycles, s.B.Cell.key(), s.B.MaxCycles)
}

// svcPlan generates service-mix steps in order. New runs walk seeded
// permutations of all tiny cells, sweeps draw three workloads each, and
// each block of svcBlock steps holds the kinds of svcKinds in seeded order.
type svcPlan struct {
	rng      *rand.Rand
	tiny     []cell
	workload []string
	steps    []svcStep
	// fresh counts budgets handed out; runOrder is the current permutation
	// of tiny and next the position in it.
	fresh    uint64
	runOrder []int
	next     int
	finished []runOp
}

func newSvcPlan(seed uint64) *svcPlan {
	return &svcPlan{rng: rand.New(rand.NewPCG(seed, 0x5e7)), tiny: cells(gpu.ModelNames()), workload: kernels.Names()}
}

func (p *svcPlan) blockLen() int { return svcBlock }

func (p *svcPlan) budget() uint64 {
	p.fresh++
	return gpu.DefaultMaxCycles - p.fresh
}

func (p *svcPlan) newRun() runOp {
	if p.next == len(p.runOrder) {
		p.runOrder, p.next = p.rng.Perm(len(p.tiny)), 0
	}
	c := p.tiny[p.runOrder[p.next]]
	p.next++
	return runOp{c, p.budget()}
}

// newSweeps draws three workloads W1, W2, W3 and returns client A's sweep
// of W1,W2 and client B's of W2,W3, the overlap CI's sweep-smoke job
// checks. Both get one new budget, so their W2 cells are the same runs.
func (p *svcPlan) newSweeps() [2]sweepOp {
	w := p.rng.Perm(len(p.workload))
	budget := p.budget()
	return [2]sweepOp{
		{"client-a", [2]string{p.workload[w[0]], p.workload[w[1]]}, budget},
		{"client-b", [2]string{p.workload[w[1]], p.workload[w[2]]}, budget},
	}
}

// at returns step i, generating the steps before it first.
func (p *svcPlan) at(i int) svcStep {
	for len(p.steps) <= i {
		kinds := append([]string(nil), svcKinds...)
		p.rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		if len(p.steps) == 0 {
			// A cached step needs finished runs to repeat.
			for k := range kinds {
				if kinds[k] == stepCold {
					kinds[0], kinds[k] = kinds[k], kinds[0]
					break
				}
			}
		}
		for _, k := range kinds {
			p.steps = append(p.steps, p.plan(k))
		}
	}
	return p.steps[i]
}

func (p *svcPlan) plan(kind string) svcStep {
	st := svcStep{Kind: kind}
	switch kind {
	case stepCold:
		st.A, st.B = p.newRun(), p.newRun()
		p.finished = append(p.finished, st.A, st.B)
	case stepCoalesce:
		st.A = p.newRun()
		st.B = st.A
		p.finished = append(p.finished, st.A)
	case stepCached:
		i := p.rng.IntN(len(p.finished))
		j := p.rng.IntN(len(p.finished) - 1)
		if j >= i {
			j++
		}
		st.A, st.B = p.finished[i], p.finished[j]
	case stepSweep:
		st.Sweeps = p.newSweeps()
		// B's first workload is A's second, whose cells A already adds.
		n := len(spec.SchedulerNames())
		p.finished = append(p.finished, st.Sweeps[0].cells()...)
		p.finished = append(p.finished, st.Sweeps[1].cells()[n:]...)
	}
	return st
}
