// Package metrics implements the memory-locality analyses of the paper:
// the shared-footprint methodology of Section III-A (Figure 2) over
// workload programs, and small statistical helpers for run results.
package metrics

import (
	"fmt"
	"math"

	"laperm/internal/isa"
)

// blockSet is a set of 128-byte block addresses.
type blockSet map[uint64]struct{}

func tbBlocks(tb *isa.TB) blockSet {
	s := make(blockSet)
	for _, b := range tb.Footprint() {
		s[b] = struct{}{}
	}
	return s
}

func union(dst blockSet, src blockSet) {
	for b := range src {
		dst[b] = struct{}{}
	}
}

func intersectCount(a, b blockSet) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for x := range a {
		if _, ok := b[x]; ok {
			n++
		}
	}
	return n
}

// FootprintStats is the Figure 2 measurement for one workload.
type FootprintStats struct {
	Workload string
	// ParentChild is the mean, over direct-parent TBs, of pc/c: the
	// blocks shared between a direct parent and all of its child TBs,
	// over the child TBs' total footprint (Section III-A).
	ParentChild float64
	// ChildSibling is the mean, over child TBs with at least one
	// sibling, of cos/cs: the blocks a child shares with its siblings
	// over the siblings' total footprint.
	ChildSibling float64
	// ParentParent is the analogous ratio between each parent TB and the
	// union of the other parent TBs (the paper reports an average of
	// 9.3%, far below parent-child reuse).
	ParentParent float64
	// DirectParents and ChildTBs size the measurement.
	DirectParents int
	ChildTBs      int
}

func (f FootprintStats) String() string {
	return fmt.Sprintf("%s: parent-child %.1f%%, child-sibling %.1f%%, parent-parent %.1f%% (%d parents, %d child TBs)",
		f.Workload, 100*f.ParentChild, 100*f.ChildSibling, 100*f.ParentParent, f.DirectParents, f.ChildTBs)
}

// AnalyzeFootprint computes the shared-footprint ratios of Section III-A for
// a workload's root kernel. Memory references are counted in 128-byte
// blocks; the analysis is static (it inspects the programs, as the paper's
// trace-based examination does) and independent of the CDP/DTBL choice.
func AnalyzeFootprint(name string, k *isa.Kernel) FootprintStats {
	st := FootprintStats{Workload: name}

	var pcSum, csSum float64
	var pcN, csN int

	parentSets := make([]blockSet, len(k.TBs))
	for i, tb := range k.TBs {
		parentSets[i] = tbBlocks(tb)
	}

	for i, parent := range k.TBs {
		// Flatten all child TBs launched by this direct parent.
		var childSets []blockSet
		for _, childKernel := range parent.Launches {
			for _, ctb := range childKernel.TBs {
				childSets = append(childSets, tbBlocks(ctb))
			}
		}
		if len(childSets) == 0 {
			continue
		}
		st.DirectParents++
		st.ChildTBs += len(childSets)

		// Parent-child: pc / c.
		c := make(blockSet)
		for _, cs := range childSets {
			union(c, cs)
		}
		if len(c) > 0 {
			pc := intersectCount(parentSets[i], c)
			pcSum += float64(pc) / float64(len(c))
			pcN++
		}

		// Child-sibling: for each child, cos / cs over its siblings.
		// Computed from per-block child counts so the pass is linear
		// in total footprint rather than quadratic in children.
		if len(childSets) >= 2 {
			count := make(map[uint64]int, len(c))
			for _, cs := range childSets {
				for b := range cs {
					count[b]++
				}
			}
			for _, co := range childSets {
				// cs = |union of siblings| = |union| minus the
				// blocks only this child touches; cos = blocks
				// of this child that some sibling also touches.
				exclusive, cos := 0, 0
				for b := range co {
					if count[b] == 1 {
						exclusive++
					} else {
						cos++
					}
				}
				cs := len(c) - exclusive
				if cs == 0 {
					continue
				}
				csSum += float64(cos) / float64(cs)
				csN++
			}
		}
	}

	if pcN > 0 {
		st.ParentChild = pcSum / float64(pcN)
	}
	if csN > 0 {
		st.ChildSibling = csSum / float64(csN)
	}

	// Parent-parent: each parent vs the union of the others. With count[b]
	// the number of parents touching block b, the others' union is every
	// block but this parent's exclusive ones (count 1), and the shared
	// blocks are this parent's with count >= 2, so each parent costs one
	// pass over its own blocks.
	if len(k.TBs) >= 2 {
		count := make(map[uint64]int)
		for _, ps := range parentSets {
			for b := range ps {
				count[b]++
			}
		}
		var ppSum float64
		var ppN int
		for _, ps := range parentSets {
			exclusive, shared := 0, 0
			for b := range ps {
				if count[b] == 1 {
					exclusive++
				} else {
					shared++
				}
			}
			if othersLen := len(count) - exclusive; othersLen > 0 {
				ppSum += float64(shared) / float64(othersLen)
				ppN++
			}
		}
		if ppN > 0 {
			st.ParentParent = ppSum / float64(ppN)
		}
	}
	return st
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (0 for empty input; panics on
// non-positive values, which indicate a broken speedup computation).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("metrics: GeoMean of non-positive value %f", x))
		}
		prod *= x
	}
	return math.Pow(prod, 1/float64(len(xs)))
}
