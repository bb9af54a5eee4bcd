package metrics

import (
	"math"
	"strings"
	"testing"

	"laperm/internal/isa"
	"laperm/internal/kernels"
)

// loadTB builds a 32-thread TB whose threads each load one word of every
// listed 128-byte block.
func loadTB(blocks ...uint64) *isa.TB {
	b := isa.NewTB(32)
	for _, blk := range blocks {
		base := blk * 128
		b.Load(func(tid int) uint64 { return base + uint64(tid)*4 })
	}
	return b.Build()
}

func TestAnalyzeFootprintHandCheck(t *testing.T) {
	// Parent reads blocks {0,1,2,3}. Child A reads {2,3,10} (shares 2),
	// child B reads {3,11} (shares 1). Union of children = {2,3,10,11}
	// so pc/c = 2 shared blocks... parent∩{2,3,10,11} = {2,3} -> 2/4.
	childA := isa.NewKernel("a").Add(loadTB(2, 3, 10)).Build()
	childB := isa.NewKernel("b").Add(loadTB(3, 11)).Build()
	parentTB := loadTB(0, 1, 2, 3)
	parentTB.Launches = []*isa.Kernel{childA, childB}
	// Attach launch instructions for validity.
	parentTB.Warps[0] = append(parentTB.Warps[0],
		isa.Inst{Kind: isa.OpLaunch, ActiveLanes: 1, Arg: 0},
		isa.Inst{Kind: isa.OpLaunch, ActiveLanes: 1, Arg: 1},
	)
	k := isa.NewKernel("hand").Add(parentTB).Build()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}

	st := AnalyzeFootprint("hand", k)
	if st.DirectParents != 1 || st.ChildTBs != 2 {
		t.Fatalf("counts = %+v", st)
	}
	if want := 2.0 / 4.0; math.Abs(st.ParentChild-want) > 1e-9 {
		t.Errorf("ParentChild = %f, want %f", st.ParentChild, want)
	}
	// Child-sibling: A vs {3,11}: shares {3} -> 1/2. B vs {2,3,10}:
	// shares {3} -> 1/3. Mean = (0.5 + 0.3333)/2.
	if want := (0.5 + 1.0/3.0) / 2; math.Abs(st.ChildSibling-want) > 1e-9 {
		t.Errorf("ChildSibling = %f, want %f", st.ChildSibling, want)
	}
}

func TestAnalyzeFootprintParentParent(t *testing.T) {
	// Two parents sharing exactly one block. P0={0,1}, P1={1,2}.
	// For P0: others = {1,2}, shared = {1} -> 1/2; same for P1.
	k := isa.NewKernel("pp").Add(loadTB(0, 1), loadTB(1, 2)).Build()
	st := AnalyzeFootprint("pp", k)
	if want := 0.5; math.Abs(st.ParentParent-want) > 1e-9 {
		t.Errorf("ParentParent = %f, want %f", st.ParentParent, want)
	}
}

func TestAnalyzeFootprintNoChildren(t *testing.T) {
	k := isa.NewKernel("plain").Add(loadTB(0), loadTB(1)).Build()
	st := AnalyzeFootprint("plain", k)
	if st.ParentChild != 0 || st.ChildSibling != 0 || st.DirectParents != 0 {
		t.Errorf("stats for launch-free kernel = %+v", st)
	}
}

func TestAnalyzeFootprintSingleChildNoSiblingRatio(t *testing.T) {
	child := isa.NewKernel("c").Add(loadTB(5)).Build()
	p := loadTB(5, 6)
	p.Launches = []*isa.Kernel{child}
	p.Warps[0] = append(p.Warps[0], isa.Inst{Kind: isa.OpLaunch, ActiveLanes: 1})
	k := isa.NewKernel("one").Add(p).Build()
	st := AnalyzeFootprint("one", k)
	if st.ChildSibling != 0 {
		t.Errorf("ChildSibling = %f for an only child", st.ChildSibling)
	}
	if st.ParentChild != 1.0 {
		t.Errorf("ParentChild = %f, want 1 (child subset of parent)", st.ParentChild)
	}
}

func TestStringFormat(t *testing.T) {
	st := FootprintStats{Workload: "x", ParentChild: 0.384, ChildSibling: 0.305}
	s := st.String()
	if !strings.Contains(s, "38.4%") || !strings.Contains(s, "30.5%") {
		t.Errorf("String() = %q", s)
	}
}

// TestFig2Shape verifies the headline Figure 2 properties on the real
// workloads: meaningful average parent-child sharing, amr and join at the
// bottom of the child-sibling range, and graph inputs ordered by
// connectivity locality (citation/cage15 above graph5).
func TestFig2Shape(t *testing.T) {
	stats := make(map[string]FootprintStats)
	var pcAll []float64
	for _, w := range kernels.All() {
		// The input-locality ordering needs realistically sized
		// graphs, so this test runs the real experiment scale.
		st := AnalyzeFootprint(w.Name, w.Build(kernels.ScaleSmall))
		stats[w.Name] = st
		pcAll = append(pcAll, st.ParentChild)
	}

	if avg := Mean(pcAll); avg < 0.15 || avg > 0.70 {
		t.Errorf("average parent-child ratio %.3f outside plausible range of the paper's 38.4%%", avg)
	}

	// amr and join: lowest child-sibling sharing.
	for _, low := range []string{"amr", "join-uniform", "join-gaussian"} {
		if cs := stats[low].ChildSibling; cs > 0.10 {
			t.Errorf("%s child-sibling = %.3f, want near zero", low, cs)
		}
	}
	for _, name := range []string{"bfs-citation", "bfs-cage15", "sssp-citation", "regx-darpa", "bht"} {
		if cs := stats[name].ChildSibling; cs < stats["amr"].ChildSibling {
			t.Errorf("%s child-sibling %.3f below amr's %.3f", name, cs, stats["amr"].ChildSibling)
		}
	}

	// Input dependence: concentrated graphs beat scattered graph5.
	for _, app := range []string{"bfs", "sssp", "clr"} {
		cite := stats[app+"-citation"].ChildSibling
		cage := stats[app+"-cage15"].ChildSibling
		g5 := stats[app+"-graph5"].ChildSibling
		if !(cite > g5) {
			t.Errorf("%s: citation child-sibling %.3f should exceed graph5 %.3f", app, cite, g5)
		}
		if !(cage > g5) {
			t.Errorf("%s: cage15 child-sibling %.3f should exceed graph5 %.3f", app, cage, g5)
		}
	}

	// Parent-parent reuse is well below parent-child on average (the
	// paper reports 9.3% vs 38.4%).
	var ppAll []float64
	for _, st := range stats {
		ppAll = append(ppAll, st.ParentParent)
	}
	if Mean(ppAll) >= Mean(pcAll) {
		t.Errorf("parent-parent mean %.3f not below parent-child mean %.3f", Mean(ppAll), Mean(pcAll))
	}
}

func TestMeanAndGeoMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %f", m)
	}
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Errorf("GeoMean = %f", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("GeoMean of non-positive did not panic")
			}
		}()
		GeoMean([]float64{1, 0})
	}()
}
