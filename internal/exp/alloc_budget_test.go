package exp

// Whole-cell allocation budgets: one explicit number per benchmarked
// workload, covering simulator construction, the complete run (including the
// device-launch path the micro pins in internal/gpu cannot see), and result
// assembly, across every registered launch model and scheduler. The steady
// state is zero-alloc (pinned in gpu/smx/mem), so a cell's total is its
// fixed setup cost — measured at 211–274 allocations per cell. The budgets
// leave ~50% headroom for benign construction changes; a single stray
// allocation on a per-cycle path adds tens of thousands and fails
// immediately. Raising a budget is an explicit, reviewed edit to this table.

import (
	"runtime"
	"testing"

	"laperm/internal/gpu"
	"laperm/internal/kernels"
)

var cellAllocBudgets = []struct {
	workload string
	budget   float64
}{
	{"bfs-citation", 400},
	{"join-uniform", 400},
	{"amr", 400},
	{"bht", 400},
}

func TestCellAllocationBudgets(t *testing.T) {
	o := fastOptions()
	for _, tc := range cellAllocBudgets {
		t.Run(tc.workload, func(t *testing.T) {
			w, err := kernels.Lookup(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			w.Build(o.Scale) // warm the program and graph-input memos
			for _, model := range Models {
				for _, sched := range SchedulerNames {
					var runErr error
					allocs := testing.AllocsPerRun(2, func() {
						if _, err := RunOne(w, model, sched, o); err != nil {
							runErr = err
						}
					})
					if runErr != nil {
						t.Fatal(runErr)
					}
					if allocs > tc.budget {
						t.Errorf("%s/%s/%s: %.0f allocs per cell, budget %.0f",
							tc.workload, model, sched, allocs, tc.budget)
					}
				}
			}
		})
	}
}

// cellByteBudget bounds the bytes one warmed Table I tiny cell allocates.
// A Table I memory hierarchy alone is some 430 KB; a cell that draws the
// hierarchy its predecessor released (mem.System.Release) allocates only
// its kernels, warps, scheduler and Result — 81–121 KB when measured.
const cellByteBudget = 200 << 10

// TestCellByteAllocationBudgets pins the recycled memory hierarchy: the
// fewest bytes any of several back-to-back runs of a warmed Table I tiny
// cell allocates must fit cellByteBudget. The minimum is taken because
// the pool may drop a released System (a collection empties it; under
// -race it drops one Put in four), and a run that allocates a new
// hierarchy is correct, only slower.
func TestCellByteAllocationBudgets(t *testing.T) {
	o := Options{Scale: kernels.ScaleTiny}
	for _, name := range []string{"bfs-citation", "amr", "join-uniform", "bht"} {
		w, err := kernels.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		least := ^uint64(0)
		for i := 0; i < 10; i++ {
			runtime.ReadMemStats(&before)
			if _, err := RunOne(w, gpu.DTBL, "adaptive-bind", o); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			// The first two runs warm the workload memos and the pool.
			if d := after.TotalAlloc - before.TotalAlloc; i >= 2 && d < least {
				least = d
			}
		}
		t.Logf("%s/dtbl/adaptive-bind: at least %d KB per cell", name, least>>10)
		if least > cellByteBudget {
			t.Errorf("%s/dtbl/adaptive-bind: %d KB per cell at the least, budget %d KB",
				name, least>>10, cellByteBudget>>10)
		}
	}
}
