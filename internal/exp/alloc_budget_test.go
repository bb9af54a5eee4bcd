package exp

// Whole-cell allocation budgets: one explicit number per benchmarked
// workload, covering simulator construction, the complete run (including the
// device-launch path the micro pins in internal/gpu cannot see), and result
// assembly, across every registered launch model and scheduler. The steady
// state is zero-alloc (pinned in gpu/smx/mem), and a cell draws the engine
// its predecessor released, kernel-instance records included, so a cell's
// total is what stays per run — its scheduler and Result — measured at 40–44
// allocations per cell. The budgets leave ~50% headroom for benign
// construction changes; a single stray allocation on a per-cycle path adds
// tens of thousands and fails immediately. Raising a budget is an explicit,
// reviewed edit to this table.

import (
	"math"
	"runtime"
	"testing"

	"laperm/internal/kernels"
	"laperm/internal/spec"
)

var cellAllocBudgets = []struct {
	workload string
	budget   float64
}{
	{"bfs-citation", 64},
	{"join-uniform", 64},
	{"amr", 64},
	{"bht", 64},
}

// TestCellAllocationBudgets takes the fewest allocations of a few warmed
// runs of each cell: the engine pool may drop a released engine (a
// collection empties it; under -race it drops one Put in four), and a run
// that builds a new engine is correct, only slower.
func TestCellAllocationBudgets(t *testing.T) {
	o := fastOptions()
	for _, tc := range cellAllocBudgets {
		t.Run(tc.workload, func(t *testing.T) {
			w, err := kernels.Lookup(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			w.Build(o.Scale) // warm the program and graph-input memos
			most := 0.0
			for _, model := range Models {
				for _, sched := range SchedulerNames {
					var runErr error
					allocs := math.Inf(1)
					for i := 0; i < 4; i++ {
						allocs = min(allocs, testing.AllocsPerRun(1, func() {
							if _, err := RunOne(w, model, sched, o); err != nil {
								runErr = err
							}
						}))
					}
					if runErr != nil {
						t.Fatal(runErr)
					}
					most = max(most, allocs)
					if allocs > tc.budget {
						t.Errorf("%s/%s/%s: %.0f allocs per cell, budget %.0f",
							tc.workload, model, sched, allocs, tc.budget)
					}
				}
			}
			t.Logf("%s: at most %.0f allocs per cell", tc.workload, most)
		})
	}
}

// cellByteBudget bounds the bytes one warmed tiny cell allocates. A Table I
// engine — memory hierarchy, SMXs, freelists, queues and instance records —
// is some 500 KB; a cell that draws the engine its predecessor released
// allocates only its scheduler and Result: 4–5 KB when measured. The budget
// is below what a tiny cell's instance records alone take (some 14 KB for
// bfs-citation's 145 instances), so a run that allocates its own fails.
const cellByteBudget = 16 << 10

// leastCellBytes returns the fewest bytes any of several back-to-back runs
// of each cell allocates, the first two rounds (which warm the workload
// memos and the engine pool) aside. The minimum is taken because the pool
// may drop a released engine, and a run that builds a new one is correct,
// only slower. Cells run in turn, so each draws the engine another cell
// released.
func leastCellBytes(t *testing.T, cells ...spec.RunSpec) []uint64 {
	t.Helper()
	o := Options{Scale: kernels.ScaleTiny}
	least := make([]uint64, len(cells))
	for i := range least {
		least[i] = math.MaxUint64
	}
	var before, after runtime.MemStats
	for round := 0; round < 10; round++ {
		for i, c := range cells {
			runtime.ReadMemStats(&before)
			if _, err := o.run(c); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; round >= 2 && d < least[i] {
				least[i] = d
			}
		}
	}
	return least
}

// TestCellByteAllocationBudgets pins the recycled engine: a warmed Table I
// tiny cell must fit cellByteBudget.
func TestCellByteAllocationBudgets(t *testing.T) {
	for _, name := range []string{"bfs-citation", "amr", "join-uniform", "bht"} {
		least := leastCellBytes(t, spec.RunSpec{Workload: name, Scale: kernels.ScaleTiny.String(), Model: "dtbl", Scheduler: "adaptive-bind"})[0]
		t.Logf("%s/dtbl/adaptive-bind: at least %d KB per cell", name, least>>10)
		if least > cellByteBudget {
			t.Errorf("%s/dtbl/adaptive-bind: %d KB per cell at the least, budget %d KB",
				name, least>>10, cellByteBudget>>10)
		}
	}
}

// smallCellByteBudget bounds the bytes one warmed Table I small-scale cell
// allocates. A small bfs-citation DTBL cell launches some 3,300 child
// kernels. With their records in the recycled engine it allocates 32 KB
// when measured, most of it its scheduler's queues growing to their peak;
// the records alone would take some 310 KB.
const smallCellByteBudget = 64 << 10

// TestSmallCellByteAllocationBudgets pins the recycled instance records: a
// warmed Table I small bfs-citation DTBL cell must fit smallCellByteBudget.
func TestSmallCellByteAllocationBudgets(t *testing.T) {
	sp := spec.RunSpec{Workload: "bfs-citation", Scale: kernels.ScaleSmall.String(), Model: "dtbl", Scheduler: "adaptive-bind"}
	least := leastCellBytes(t, sp)[0]
	t.Logf("small bfs-citation/dtbl/adaptive-bind: at least %d KB per cell", least>>10)
	if least > smallCellByteBudget {
		t.Errorf("small bfs-citation/dtbl/adaptive-bind: %d KB per cell at the least, budget %d KB",
			least>>10, smallCellByteBudget>>10)
	}
}

// TestGeometryAlternationByteBudget: a Table I cell and a cell on 12 SMXs
// that share L1s in pairs (the clusters study's machine), run alternately,
// must each fit cellByteBudget — the two machines' caches have one shape, so
// a switch between them recycles the engine instead of building a new one.
func TestGeometryAlternationByteBudget(t *testing.T) {
	table1 := spec.RunSpec{Workload: "bfs-citation", Scale: kernels.ScaleTiny.String(), Model: "dtbl", Scheduler: "adaptive-bind"}
	pairs := table1
	pairs.NumSMX, pairs.SchedulerParams = 12, &spec.SchedulerParams{ClusterSize: 2}
	for i, least := range leastCellBytes(t, table1, pairs) {
		name := []string{"table1", "12-smx-pairs"}[i]
		t.Logf("%s: at least %d KB per cell", name, least>>10)
		if least > cellByteBudget {
			t.Errorf("%s: %d KB per cell at the least, budget %d KB", name, least>>10, cellByteBudget>>10)
		}
	}
}
