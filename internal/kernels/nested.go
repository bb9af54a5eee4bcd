package kernels

import (
	"sync"

	"laperm/internal/isa"
)

// nestedPrograms memoizes Nested's program per scale. It is keyed by the
// Scale alone, which boxes without allocating, so a memoized Build costs
// nothing.
var nestedPrograms sync.Map // Scale -> *isa.Kernel

// nested is the workload Nested returns.
var nested = Workload{
	Name:  "nested-4",
	App:   "nested",
	Input: "synthetic",
	Build: func(s Scale) *isa.Kernel {
		if v, ok := nestedPrograms.Load(s); ok {
			return v.(*isa.Kernel)
		}
		v, _ := nestedPrograms.LoadOrStore(s, buildNested(s))
		return v.(*isa.Kernel)
	},
}

// Nested returns nested-4, a synthetic 4-deep nested launch tree for the
// priority-level ablation: every TB reads a region shared with its
// descendants (so prioritising deep children pays off in cache reuse) and
// launches two children until the depth limit. It is not a Table II
// workload: Lookup and ByName resolve it, All and Names do not list it.
// The program is built once per scale and shared; callers must not modify
// it.
func Nested() Workload { return nested }

// buildNested builds Nested's program at scale s.
func buildNested(s Scale) *isa.Kernel {
	// Each root expands to 31 TBs (1+2+4+8+16). The small scale pushes
	// ~10k TBs through the 208-TB machine and exceeds it with root TBs
	// alone, so descendants truly queue and priority order matters.
	roots := 16
	if s == ScaleSmall {
		roots = 320
	}
	if s == ScaleMedium {
		roots = 640
	}
	kb := isa.NewKernel("nested")
	id := 0
	for r := 0; r < roots; r++ {
		kb.Add(nestedTB(uint64(r), 4, &id))
	}
	return kb.Build()
}

// nestedTB builds one TB of the nested tree rooted at region `root`, with
// `depth` further generations below it.
func nestedTB(root uint64, depth int, id *int) *isa.TB {
	base := RegionData + root*64*1024
	b := isa.NewTB(TBThreads).Resources(20, 0)
	// Read the subtree-shared region (4 KB that every generation of this
	// root reuses) and a small generation-private stripe.
	for word := 0; word < 16; word++ {
		off := uint64(word * TBThreads * 4)
		b.Load(func(tid int) uint64 { return base + off + uint64(tid)*4 })
		b.Compute(4)
	}
	priv := uint64(*id) * 4096
	*id++
	b.Load(func(tid int) uint64 { return RegionData2 + priv + uint64(tid)*4 })
	b.Compute(12)
	if depth > 0 {
		for c := 0; c < 2; c++ {
			child := isa.NewKernel("nested-child").
				Add(nestedTB(root, depth-1, id)).Build()
			b.Launch(c*32, child)
		}
	}
	b.Compute(12)
	b.Store(func(tid int) uint64 { return RegionOut + priv + uint64(tid)*4 })
	return b.Build()
}
