package kernels

import (
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
)

// childrenPerParent returns the number of child grids launched by each
// parent TB of a workload.
func childrenPerParent(k *isa.Kernel) []int {
	out := make([]int, len(k.TBs))
	for i, tb := range k.TBs {
		out[i] = len(tb.Launches)
	}
	return out
}

// TestAMRLaunchClustering: the combustion flame front concentrates
// refinement in the middle tiles, so the central third of parents must
// launch far more children than the periphery (the imbalance that stresses
// SMX-Bind).
func TestAMRLaunchClustering(t *testing.T) {
	w, _ := ByName("amr")
	k := w.Build(ScaleSmall)
	counts := childrenPerParent(k)
	n := len(counts)
	periphery, centre := 0, 0
	for i, c := range counts {
		if i >= n/3 && i < 2*n/3 {
			centre += c
		} else {
			periphery += c
		}
	}
	if centre <= periphery {
		t.Errorf("AMR refinement not clustered: centre %d children vs periphery %d", centre, periphery)
	}
}

// TestAMRChildrenWritePrivateFineGrids: every amr child writes to a region
// no other child writes (RegionOut disjointness behind Figure 2's zero
// sibling sharing).
func TestAMRChildrenWritePrivateFineGrids(t *testing.T) {
	w, _ := ByName("amr")
	k := w.Build(ScaleTiny)
	seen := make(map[uint64]bool)
	for _, parent := range k.TBs {
		for _, child := range parent.Launches {
			mine := make(map[uint64]bool)
			for _, tb := range child.TBs {
				for _, warp := range tb.Warps {
					for _, in := range warp {
						if in.Kind != isa.OpStore {
							continue
						}
						for _, id := range tb.LinesOf(&in) {
							if l := uint64(id) * config.LineSize; l >= RegionOut {
								mine[l/128] = true
							}
						}
					}
				}
			}
			for blk := range mine {
				if seen[blk] {
					t.Fatalf("two amr children share output block %#x", blk)
				}
				seen[blk] = true
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no fine-grid stores observed")
	}
}

// TestREGXInputsDiffer: darpa packets are longer (more work per child) and
// match more often (more children) than the random-string collection.
func TestREGXInputsDiffer(t *testing.T) {
	darpa, _ := ByName("regx-darpa")
	strings_, _ := ByName("regx-strings")
	kd := darpa.Build(ScaleTiny)
	ks := strings_.Build(ScaleTiny)

	count := func(k *isa.Kernel) (children int, insts int64) {
		for _, tb := range k.TBs {
			children += len(tb.Launches)
			for _, c := range tb.Launches {
				insts += c.InstCount()
			}
		}
		return
	}
	dc, di := count(kd)
	sc, si := count(ks)
	if dc <= sc {
		t.Errorf("darpa children %d not above strings %d (match rates)", dc, sc)
	}
	if di/int64(dc) <= si/int64(sc) {
		t.Errorf("darpa per-child work %d not above strings %d (payload length)",
			di/int64(dc), si/int64(sc))
	}
}

// TestJOINGaussianSkew: the gaussian input's S partitions are skewed, so
// child instruction counts vary much more than under the uniform input.
func TestJOINGaussianSkew(t *testing.T) {
	spread := func(name string) (min, max int64) {
		w, _ := ByName(name)
		k := w.Build(ScaleTiny)
		first := true
		for _, tb := range k.TBs {
			for _, c := range tb.Launches {
				n := c.InstCount()
				if first || n < min {
					min = n
				}
				if first || n > max {
					max = n
				}
				first = false
			}
		}
		return
	}
	uMin, uMax := spread("join-uniform")
	gMin, gMax := spread("join-gaussian")
	if uMin != uMax {
		t.Errorf("uniform join children uneven: %d..%d", uMin, uMax)
	}
	// The child's fixed work (staged-bucket read, output stores) dilutes
	// the S-stream variance, so require a clear but not extreme spread.
	if gMax*2 < gMin*3 {
		t.Errorf("gaussian join children not skewed: %d..%d", gMin, gMax)
	}
}

// TestJOINChildrenConsumeStagedData: every join child reads the staging
// region its parent wrote (the producer/consumer pattern behind the
// temporal-locality argument).
func TestJOINChildrenConsumeStagedData(t *testing.T) {
	w, _ := ByName("join-uniform")
	k := w.Build(ScaleTiny)
	for pi, tb := range k.TBs {
		parentStores := make(map[uint64]bool)
		for _, warp := range tb.Warps {
			for _, in := range warp {
				if in.Kind == isa.OpStore {
					for _, id := range tb.LinesOf(&in) {
						if l := uint64(id) * config.LineSize; l >= RegionStage && l < RegionOut {
							parentStores[l/128] = true
						}
					}
				}
			}
		}
		if len(parentStores) == 0 {
			t.Fatalf("parent %d staged nothing", pi)
		}
		for ci, c := range tb.Launches {
			found := false
			for _, ctb := range c.TBs {
				for _, blk := range ctb.Footprint() {
					if parentStores[blk] {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("parent %d child %d never reads the staged bucket", pi, ci)
			}
		}
	}
}

// TestBHTChildrenShareTopTreeAndPoints: every bht child re-reads part of
// its parent's point chunk and the shared top tree nodes.
func TestBHTChildrenShareTopTreeAndPoints(t *testing.T) {
	w, _ := ByName("bht")
	k := w.Build(ScaleTiny)
	topTreeBlock := RegionData2 / 128 // node 0 lives in the first block
	for pi, tb := range k.TBs {
		pset := make(map[uint64]bool)
		for _, blk := range tb.Footprint() {
			pset[blk] = true
		}
		for ci, c := range tb.Launches {
			sharesParent, sharesTree := false, false
			for _, ctb := range c.TBs {
				for _, blk := range ctb.Footprint() {
					if pset[blk] {
						sharesParent = true
					}
					if blk == topTreeBlock {
						sharesTree = true
					}
				}
			}
			if !sharesParent {
				t.Errorf("bht parent %d child %d shares nothing with parent", pi, ci)
			}
			if !sharesTree {
				t.Errorf("bht parent %d child %d never touches the tree root", pi, ci)
			}
		}
	}
}

// TestGraphChildrenCoverFullAdjacency: a delegated vertex's children read
// every adjacency entry of that vertex (the expansion is complete).
func TestGraphChildrenCoverFullAdjacency(t *testing.T) {
	g := inputCitation(ScaleTiny)
	k := buildBFS(ScaleTiny, g)
	checked := 0
	for p, tb := range k.TBs {
		c := chunk{g: g, base: p * TBThreads}
		high := c.highDegreeVertices()
		if len(high) != len(tb.Launches) {
			t.Fatalf("parent %d: %d high-degree vertices but %d launches", p, len(high), len(tb.Launches))
		}
		for i, v := range high {
			child := tb.Launches[i]
			blocks := make(map[uint64]bool)
			for _, ctb := range child.TBs {
				for _, blk := range ctb.Footprint() {
					blocks[blk] = true
				}
			}
			for e := int(g.RowPtr[v]); e < int(g.RowPtr[v+1]); e++ {
				if !blocks[colAddr(e)/128] {
					t.Fatalf("vertex %d edge %d not covered by its child", v, e)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no delegated vertices at tiny scale")
	}
}

// TestPREHotItemsSharedAcrossChildren: the Zipf-popular item features are
// read by most pre children (the sibling-sharing source).
func TestPREHotItemsSharedAcrossChildren(t *testing.T) {
	w, _ := ByName("pre-movielens")
	k := w.Build(ScaleTiny)
	blockReaders := make(map[uint64]int)
	children := 0
	for _, tb := range k.TBs {
		for _, c := range tb.Launches {
			children++
			seen := make(map[uint64]bool)
			for _, ctb := range c.TBs {
				for _, blk := range ctb.Footprint() {
					if blk*128 >= RegionData2 && blk*128 < RegionStage && !seen[blk] {
						seen[blk] = true
						blockReaders[blk]++
					}
				}
			}
		}
	}
	if children < 4 {
		t.Skip("too few children at tiny scale")
	}
	maxReaders := 0
	for _, n := range blockReaders {
		if n > maxReaders {
			maxReaders = n
		}
	}
	if maxReaders < children/2 {
		t.Errorf("hottest item block read by %d of %d children; want a shared hot set", maxReaders, children)
	}
}
