package kernels

import (
	"errors"
	"strings"
	"testing"

	"laperm/internal/isa"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("workloads = %d, want 16 (Table II app-input pairs)", len(all))
	}
	wantApps := []string{"amr", "bht", "bfs", "clr", "regx", "pre", "join", "sssp"}
	apps := Apps()
	if len(apps) != len(wantApps) {
		t.Fatalf("apps = %v, want %v", apps, wantApps)
	}
	for i, a := range wantApps {
		if apps[i] != a {
			t.Errorf("app %d = %q, want %q", i, apps[i], a)
		}
	}
	seen := make(map[string]bool)
	for _, w := range all {
		if w.Name == "" || w.App == "" || w.Input == "" || w.Build == nil {
			t.Errorf("workload %+v has empty fields", w)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("bfs-citation")
	if !ok || w.App != "bfs" || w.Input != "citation" {
		t.Errorf("ByName(bfs-citation) = %+v, %v", w, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted unknown name")
	}
	if len(Names()) != 16 {
		t.Error("Names() incomplete")
	}
}

func TestAllWorkloadsBuildValidPrograms(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			k := w.Build(ScaleTiny)
			if err := k.Validate(); err != nil {
				t.Fatalf("invalid program: %v", err)
			}
			if len(k.TBs) != ScaleTiny.parentTBs() {
				t.Errorf("parent TBs = %d, want %d", len(k.TBs), ScaleTiny.parentTBs())
			}
			for _, tb := range k.TBs {
				if tb.Threads != TBThreads {
					t.Errorf("TB threads = %d, want %d", tb.Threads, TBThreads)
				}
			}
		})
	}
}

func TestAllWorkloadsLaunchChildren(t *testing.T) {
	for _, w := range All() {
		k := w.Build(ScaleTiny)
		children := 0
		k.Walk(func(parent, child *isa.Kernel) {
			if parent != nil {
				children++
			}
		})
		if children == 0 {
			t.Errorf("%s: no dynamic launches at tiny scale", w.Name)
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		a := w.Build(ScaleTiny)
		b := w.Build(ScaleTiny)
		if a.TotalInstCount() != b.TotalInstCount() {
			t.Errorf("%s: builds differ (%d vs %d insts)", w.Name, a.TotalInstCount(), b.TotalInstCount())
		}
		fa, fb := unionFootprint(a), unionFootprint(b)
		if len(fa) != len(fb) {
			t.Errorf("%s: footprints differ (%d vs %d blocks)", w.Name, len(fa), len(fb))
		}
	}
}

func unionFootprint(k *isa.Kernel) map[uint64]struct{} {
	set := make(map[uint64]struct{})
	k.Walk(func(_, c *isa.Kernel) {
		for _, tb := range c.TBs {
			for _, blk := range tb.Footprint() {
				set[blk] = struct{}{}
			}
		}
	})
	return set
}

func TestScalesGrow(t *testing.T) {
	w, _ := ByName("bfs-citation")
	tiny := w.Build(ScaleTiny).TotalInstCount()
	small := w.Build(ScaleSmall).TotalInstCount()
	medium := w.Build(ScaleMedium).TotalInstCount()
	if !(tiny < small && small < medium) {
		t.Errorf("instruction counts not growing: %d, %d, %d", tiny, small, medium)
	}
}

func TestScaleString(t *testing.T) {
	if ScaleTiny.String() != "tiny" || ScaleSmall.String() != "small" || ScaleMedium.String() != "medium" {
		t.Error("scale names wrong")
	}
	if Scale(9).String() == "" {
		t.Error("unknown scale should format")
	}
}

// TestSiblingRegionsDisjointForAMRAndJoin checks the structural property
// behind Figure 2's lowest bars: sibling children of amr and join read and
// write disjoint private regions (beyond any parent-shared staging).
func TestSiblingRegionsDisjointForAMRAndJoin(t *testing.T) {
	for _, name := range []string{"amr", "join-uniform"} {
		w, _ := ByName(name)
		k := w.Build(ScaleTiny)
		for _, parent := range k.TBs {
			var sibs [][]uint64
			for _, child := range parent.Launches {
				set := make(map[uint64]struct{})
				for _, tb := range child.TBs {
					for _, blk := range tb.Footprint() {
						set[blk] = struct{}{}
					}
				}
				var blocks []uint64
				for b := range set {
					blocks = append(blocks, b)
				}
				sibs = append(sibs, blocks)
			}
			// Pairwise overlap ratio should be tiny.
			for i := 0; i < len(sibs); i++ {
				for j := i + 1; j < len(sibs); j++ {
					inA := make(map[uint64]bool)
					for _, b := range sibs[i] {
						inA[b] = true
					}
					shared := 0
					for _, b := range sibs[j] {
						if inA[b] {
							shared++
						}
					}
					if len(sibs[j]) > 0 && float64(shared)/float64(len(sibs[j])) > 0.15 {
						t.Errorf("%s: siblings %d/%d share %d of %d blocks", name, i, j, shared, len(sibs[j]))
					}
				}
			}
		}
	}
}

// TestParentChildOverlapExists checks every workload has real parent-child
// footprint overlap (the premise of the whole paper).
func TestParentChildOverlapExists(t *testing.T) {
	for _, w := range All() {
		k := w.Build(ScaleTiny)
		sharedAny := false
		for _, parent := range k.TBs {
			if len(parent.Launches) == 0 {
				continue
			}
			pset := make(map[uint64]bool)
			for _, blk := range parent.Footprint() {
				pset[blk] = true
			}
			for _, child := range parent.Launches {
				for _, tb := range child.TBs {
					for _, blk := range tb.Footprint() {
						if pset[blk] {
							sharedAny = true
						}
					}
				}
			}
		}
		if !sharedAny {
			t.Errorf("%s: no parent-child footprint overlap anywhere", w.Name)
		}
	}
}

// TestGraphInputsDiffer ensures the three inputs give different programs
// (different child counts / footprints), the source of the input-dependent
// behaviour in the paper's figures.
func TestGraphInputsDiffer(t *testing.T) {
	counts := make(map[string]int)
	for _, name := range []string{"bfs-citation", "bfs-graph5", "bfs-cage15"} {
		w, _ := ByName(name)
		k := w.Build(ScaleSmall)
		n := 0
		k.Walk(func(p, _ *isa.Kernel) {
			if p != nil {
				n++
			}
		})
		counts[name] = n
	}
	if counts["bfs-citation"] == counts["bfs-graph5"] && counts["bfs-graph5"] == counts["bfs-cage15"] {
		t.Errorf("all inputs produced identical child counts: %v", counts)
	}
}

func TestLaunchesComeFromOwningThreadWarp(t *testing.T) {
	// Launch instructions must be attributed to a single lane (the
	// direct parent thread of Section II-C).
	w, _ := ByName("bfs-citation")
	k := w.Build(ScaleTiny)
	for _, tb := range k.TBs {
		for _, warp := range tb.Warps {
			for _, in := range warp {
				if in.Kind == isa.OpLaunch && in.ActiveLanes != 1 {
					t.Fatalf("launch with %d active lanes", in.ActiveLanes)
				}
			}
		}
	}
}

func TestLookupUnknownWorkload(t *testing.T) {
	if _, err := Lookup("bfs-citation"); err != nil {
		t.Fatalf("Lookup(bfs-citation) = %v, want nil", err)
	}
	_, err := Lookup("no-such-workload")
	var ue *UnknownWorkloadError
	if !errors.As(err, &ue) {
		t.Fatalf("Lookup error = %T %v, want *UnknownWorkloadError", err, err)
	}
	if ue.Name != "no-such-workload" {
		t.Errorf("UnknownWorkloadError.Name = %q", ue.Name)
	}
	if len(ue.Known) != len(All())+1 || ue.Known[len(ue.Known)-1] != Nested().Name {
		t.Errorf("UnknownWorkloadError.Known = %v, want Table II's %d names, then %s",
			ue.Known, len(All()), Nested().Name)
	}
	for _, name := range ue.Known {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error message missing valid name %q: %s", name, err)
		}
	}
}
