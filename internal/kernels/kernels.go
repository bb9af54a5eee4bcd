// Package kernels implements the benchmark applications of Table II as
// workload generators for the simulator. Each benchmark emits the same
// parent→child launch topology and memory reference streams as its CUDA
// dynamic-parallelism implementation: parent thread blocks read their share
// of the input, decide data-dependently where nested parallelism exists, and
// launch child grids that consume data overlapping the parent's footprint.
//
// The generators stand in for the paper's CUDA binaries and input files (see
// DESIGN.md §1): what matters for the LaPerm study is the address streams
// and launch structure, both of which are reproduced, including the
// input-dependent child-sibling locality differences (citation/cage15
// concentrated vs graph500 scattered) and the near-zero sibling sharing of
// amr and join.
package kernels

import (
	"fmt"
	"strings"
	"sync"

	"laperm/internal/isa"
)

// Scale selects the workload size.
type Scale int

const (
	// ScaleTiny is for unit tests: a handful of parent TBs.
	ScaleTiny Scale = iota
	// ScaleSmall is the default experiment size.
	ScaleSmall
	// ScaleMedium is for longer benchmark runs.
	ScaleMedium
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// parentTBs returns the number of parent thread blocks at this scale.
//
// The simulated K20c holds 13 SMXs x 16 TBs = 208 resident thread blocks,
// so the experiment scales put several waves of parent TBs in flight — the
// regime the paper studies, where child TBs contend with undispatched
// parents (Section III-B). Tiny fits entirely on the machine and exists for
// fast mechanical tests only.
func (s Scale) parentTBs() int {
	switch s {
	case ScaleTiny:
		return 32
	case ScaleMedium:
		return 1248
	default:
		return 624
	}
}

// TBThreads is the thread-block size used by every benchmark (two warps,
// the fine-grained dynamic-parallelism granularity the paper targets).
const TBThreads = 64

// Memory-region base addresses. Each data structure of a workload lives in
// its own region so footprints are interpretable and regions never alias.
const (
	RegionRowPtr uint64 = 0x0000_0000 // CSR row pointers
	RegionCol    uint64 = 0x1000_0000 // CSR adjacency
	RegionProp   uint64 = 0x2000_0000 // per-vertex property (level/dist/color)
	RegionFront  uint64 = 0x3000_0000 // output frontier / flags
	RegionWeight uint64 = 0x4000_0000 // edge weights
	RegionData   uint64 = 0x5000_0000 // primary app data (cells/points/packets/ratings/R)
	RegionData2  uint64 = 0x6000_0000 // secondary app data (tree nodes/NFA table/items/S)
	RegionStage  uint64 = 0x7000_0000 // parent-produced staging buffers
	RegionOut    uint64 = 0x8000_0000 // child-private outputs
)

// Workload is one (application, input) pair of the evaluation.
type Workload struct {
	// Name is the unique "app-input" identifier, e.g. "bfs-citation".
	Name string
	// App and Input are the Table II application and data-set labels.
	App   string
	Input string
	// Build constructs the host kernel for the given scale. Builds are
	// deterministic: equal scale, equal program. For the Table II
	// workloads the built program is memoized per (name, scale) and
	// shared across calls — callers must treat it as immutable, which the
	// engine guarantees (it executes programs through its own mutable
	// wrappers and never writes to isa structures).
	Build func(scale Scale) *isa.Kernel
}

// programCache memoizes the built program of each (workload, scale) pair.
// Builds are deterministic (equal scale, equal program) and the engine never
// mutates isa structures — it executes them through its own KernelInstance /
// Block / warp wrappers — so one built program can back any number of
// concurrent simulation cells. Before this cache a parallel matrix sweep
// rebuilt the full program once per cell (~73% of all sweep allocations),
// and the resulting GC pressure serialized the worker pool.
var programCache sync.Map // "name/scale" -> *isa.Kernel

// memo wraps a deterministic builder with the program cache under the given
// workload name. A LoadOrStore race at most builds the program twice and
// keeps one copy; both are identical.
func memo(name string, build func(Scale) *isa.Kernel) func(Scale) *isa.Kernel {
	return func(s Scale) *isa.Kernel {
		key := fmt.Sprintf("%s/%d", name, int(s))
		if v, ok := programCache.Load(key); ok {
			return v.(*isa.Kernel)
		}
		v, _ := programCache.LoadOrStore(key, build(s))
		return v.(*isa.Kernel)
	}
}

// tableII is every workload of the evaluation in the paper's Table II
// order. It is built once: its Build funcs share the program cache, so
// lookups by name allocate nothing.
var tableII = []Workload{
	{Name: "amr", App: "amr", Input: "combustion", Build: memo("amr", buildAMR)},
	{Name: "bht", App: "bht", Input: "random-points", Build: memo("bht", buildBHT)},
	{Name: "bfs-citation", App: "bfs", Input: "citation", Build: memo("bfs-citation", graphBuilder(buildBFS, inputCitation))},
	{Name: "bfs-graph5", App: "bfs", Input: "graph5", Build: memo("bfs-graph5", graphBuilder(buildBFS, inputGraph5))},
	{Name: "bfs-cage15", App: "bfs", Input: "cage15", Build: memo("bfs-cage15", graphBuilder(buildBFS, inputCage15))},
	{Name: "clr-citation", App: "clr", Input: "citation", Build: memo("clr-citation", graphBuilder(buildCLR, inputCitation))},
	{Name: "clr-graph5", App: "clr", Input: "graph5", Build: memo("clr-graph5", graphBuilder(buildCLR, inputGraph5))},
	{Name: "clr-cage15", App: "clr", Input: "cage15", Build: memo("clr-cage15", graphBuilder(buildCLR, inputCage15))},
	{Name: "regx-darpa", App: "regx", Input: "darpa", Build: memo("regx-darpa", func(s Scale) *isa.Kernel { return buildREGX(s, true) })},
	{Name: "regx-strings", App: "regx", Input: "strings", Build: memo("regx-strings", func(s Scale) *isa.Kernel { return buildREGX(s, false) })},
	{Name: "pre-movielens", App: "pre", Input: "movielens", Build: memo("pre-movielens", buildPRE)},
	{Name: "join-uniform", App: "join", Input: "uniform", Build: memo("join-uniform", func(s Scale) *isa.Kernel { return buildJOIN(s, false) })},
	{Name: "join-gaussian", App: "join", Input: "gaussian", Build: memo("join-gaussian", func(s Scale) *isa.Kernel { return buildJOIN(s, true) })},
	{Name: "sssp-citation", App: "sssp", Input: "citation", Build: memo("sssp-citation", graphBuilder(buildSSSP, inputCitation))},
	{Name: "sssp-graph5", App: "sssp", Input: "graph5", Build: memo("sssp-graph5", graphBuilder(buildSSSP, inputGraph5))},
	{Name: "sssp-cage15", App: "sssp", Input: "cage15", Build: memo("sssp-cage15", graphBuilder(buildSSSP, inputCage15))},
}

// All returns every workload of the evaluation in the paper's Table II
// order. The slice is fresh; callers may keep or mutate it.
func All() []Workload { return append([]Workload(nil), tableII...) }

// ByName returns the named workload: a Table II workload or Nested.
func ByName(name string) (Workload, bool) {
	for _, w := range tableII {
		if w.Name == name {
			return w, true
		}
	}
	if name == nested.Name {
		return nested, true
	}
	return Workload{}, false
}

// UnknownWorkloadError reports a workload lookup by a name Lookup does not
// accept, carrying the valid names so callers (CLI usage errors, the
// simulation service's 400 responses) can list them without re-deriving
// the set.
type UnknownWorkloadError struct {
	// Name is the unknown name that was requested.
	Name string
	// Known lists every valid workload name (LookupNames).
	Known []string
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("kernels: unknown workload %q (valid: %s)", e.Name, strings.Join(e.Known, ", "))
}

// Lookup returns the named workload, or a structured
// *UnknownWorkloadError listing the valid names.
func Lookup(name string) (Workload, error) {
	w, ok := ByName(name)
	if !ok {
		return Workload{}, &UnknownWorkloadError{Name: name, Known: LookupNames()}
	}
	return w, nil
}

// LookupNames returns every name Lookup accepts: Table II in evaluation
// order, then Nested's.
func LookupNames() []string { return append(Names(), nested.Name) }

// Names returns all Table II workload names in evaluation order.
func Names() []string {
	names := make([]string, len(tableII))
	for i, w := range tableII {
		names[i] = w.Name
	}
	return names
}

// Apps returns the distinct application names in evaluation order.
func Apps() []string {
	seen := make(map[string]bool)
	var apps []string
	for _, w := range tableII {
		if !seen[w.App] {
			seen[w.App] = true
			apps = append(apps, w.App)
		}
	}
	return apps
}

// splitmix64 is a small deterministic hash used for data-dependent but
// reproducible decisions inside workload generators.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashFloat returns a deterministic pseudo-random float in [0, 1) for the
// given key.
func hashFloat(key uint64) float64 {
	return float64(splitmix64(key)>>11) / float64(1<<53)
}
