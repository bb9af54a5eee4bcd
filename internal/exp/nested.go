package exp

import (
	"sync"

	"laperm/internal/isa"
	"laperm/internal/kernels"
)

// nestedPrograms memoizes NestedWorkload's program per scale, as the
// kernels package does for the Table II programs: the build is
// deterministic and the program immutable, so every levels cell and sweep
// point shares one tree (validated once).
var nestedPrograms sync.Map // kernels.Scale -> *isa.Kernel

// NestedWorkload builds a synthetic 4-deep nested launch tree for the
// priority-level ablation: every TB reads a region shared with its
// descendants (so prioritising deep children pays off in cache reuse) and
// launches two children until the depth limit. The program is built once
// per scale and shared; callers must not modify it.
func NestedWorkload() kernels.Workload {
	return kernels.Workload{
		Name:  "nested-4",
		App:   "nested",
		Input: "synthetic",
		Build: func(s kernels.Scale) *isa.Kernel {
			if v, ok := nestedPrograms.Load(s); ok {
				return v.(*isa.Kernel)
			}
			v, _ := nestedPrograms.LoadOrStore(s, buildNested(s))
			return v.(*isa.Kernel)
		},
	}
}

// buildNested builds NestedWorkload's program at scale s.
func buildNested(s kernels.Scale) *isa.Kernel {
	// Each root expands to 31 TBs (1+2+4+8+16). The small scale pushes
	// ~10k TBs through the 208-TB machine and exceeds it with root TBs
	// alone, so descendants truly queue and priority order matters.
	roots := 16
	if s == kernels.ScaleSmall {
		roots = 320
	}
	if s == kernels.ScaleMedium {
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
	base := kernels.RegionData + root*64*1024
	b := isa.NewTB(kernels.TBThreads).Resources(20, 0)
	// Read the subtree-shared region (4 KB that every generation of this
	// root reuses) and a small generation-private stripe.
	for word := 0; word < 16; word++ {
		off := uint64(word * kernels.TBThreads * 4)
		b.Load(func(tid int) uint64 { return base + off + uint64(tid)*4 })
		b.Compute(4)
	}
	priv := uint64(*id) * 4096
	*id++
	b.Load(func(tid int) uint64 { return kernels.RegionData2 + priv + uint64(tid)*4 })
	b.Compute(12)
	if depth > 0 {
		for c := 0; c < 2; c++ {
			child := isa.NewKernel("nested-child").
				Add(nestedTB(root, depth-1, id)).Build()
			b.Launch(c*32, child)
		}
	}
	b.Compute(12)
	b.Store(func(tid int) uint64 { return kernels.RegionOut + priv + uint64(tid)*4 })
	return b.Build()
}
