package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasics(t *testing.T) {
	g := FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {1, 0}, {2, 3}, {3, 2}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if got := g.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Neighbors(0) = %v", got)
	}
	if g.Degree(1) != 1 || g.Degree(3) != 1 {
		t.Error("degree mismatch")
	}
}

func TestFromEdgesDedupAndSelfLoops(t *testing.T) {
	g := FromEdges(3, [][2]int32{{0, 1}, {0, 1}, {1, 1}, {2, 0}, {0, 2}, {0, 2}})
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d, want 2 (dedup)", g.Degree(0))
	}
	if g.Degree(1) != 0 {
		t.Errorf("Degree(1) = %d, want 0 (self loop dropped)", g.Degree(1))
	}
}

func TestFromEdgesDropsOutOfRange(t *testing.T) {
	g := FromEdges(2, [][2]int32{{0, 5}, {-1, 0}, {0, 1}})
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestFromEdgesSortsNeighbors(t *testing.T) {
	g := FromEdges(5, [][2]int32{{0, 4}, {0, 1}, {0, 3}, {0, 2}})
	nb := g.Neighbors(0)
	if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
		t.Errorf("neighbors not sorted: %v", nb)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	broken := []*CSR{
		{RowPtr: nil},
		{RowPtr: []int32{1, 2}, Col: []int32{0}},
		{RowPtr: []int32{0, 2, 1}, Col: []int32{0, 1, 0}},
		{RowPtr: []int32{0, 1}, Col: []int32{5}},
		{RowPtr: []int32{0, 2}, Col: []int32{0}},
	}
	for i, g := range broken {
		if err := g.Validate(); err == nil {
			t.Errorf("broken graph %d passed validation", i)
		}
	}
}

func TestGeneratorsProduceValidGraphs(t *testing.T) {
	gens := map[string]*CSR{
		"citation": Citation(500, 4, 1),
		"rmat":     RMAT(9, 4, 1),
		"banded":   Banded(500, 4, 16, 1),
	}
	for name, g := range gens {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s: no edges", name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RMAT(8, 4, 7)
	b := RMAT(8, 4, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("RMAT not deterministic")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			t.Fatal("RMAT adjacency differs between identical seeds")
		}
	}
	c := Citation(300, 3, 9)
	d := Citation(300, 3, 9)
	if c.NumEdges() != d.NumEdges() {
		t.Fatal("Citation not deterministic")
	}
}

// TestLocalityOrdering verifies the property the paper relies on: banded
// (cage15-like) and citation inputs have concentrated connectivity while
// R-MAT (graph500) is scattered.
func TestLocalityOrdering(t *testing.T) {
	banded := LocalityIndex(Banded(1<<10, 4, 16, 3))
	citation := LocalityIndex(Citation(1<<10, 4, 3))
	rmat := LocalityIndex(RMAT(10, 4, 3))
	if !(banded < citation) {
		t.Errorf("banded locality %f should beat citation %f", banded, citation)
	}
	if !(citation < rmat) {
		t.Errorf("citation locality %f should beat rmat %f", citation, rmat)
	}
	if banded > 0.05 {
		t.Errorf("banded locality index %f unexpectedly large", banded)
	}
	if rmat < 0.1 {
		t.Errorf("rmat locality index %f unexpectedly small", rmat)
	}
}

func TestBFSLevels(t *testing.T) {
	// 0 - 1 - 2, 3 isolated.
	g := FromEdges(4, [][2]int32{{0, 1}, {1, 0}, {1, 2}, {2, 1}})
	levels, frontiers := BFSLevels(g, 0)
	want := []int32{0, 1, 2, -1}
	for i, l := range levels {
		if l != want[i] {
			t.Errorf("level[%d] = %d, want %d", i, l, want[i])
		}
	}
	if len(frontiers) != 3 {
		t.Errorf("frontier count = %d, want 3", len(frontiers))
	}
	if len(frontiers[1]) != 1 || frontiers[1][0] != 1 {
		t.Errorf("frontier 1 = %v", frontiers[1])
	}
}

func TestBFSCoversConnectedComponent(t *testing.T) {
	g := Citation(200, 3, 11)
	levels, frontiers := BFSLevels(g, 0)
	reached := 0
	for _, l := range levels {
		if l >= 0 {
			reached++
		}
	}
	total := 0
	for _, f := range frontiers {
		total += len(f)
	}
	if total != reached {
		t.Errorf("frontier sizes sum %d != reached %d", total, reached)
	}
	if reached < 100 {
		t.Errorf("citation graph from 0 reaches only %d/200", reached)
	}
}

// Property: FromEdges always yields a graph that validates, with sorted,
// deduplicated adjacency.
func TestFromEdgesProperty(t *testing.T) {
	f := func(raw [][2]int16, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		edges := make([][2]int32, len(raw))
		for i, e := range raw {
			edges[i] = [2]int32{int32(int(e[0]) % n), int32(int(e[1]) % n)}
		}
		g := FromEdges(n, edges)
		if g.Validate() != nil {
			return false
		}
		for v := 0; v < n; v++ {
			nb := g.Neighbors(v)
			for i := 1; i < len(nb); i++ {
				if nb[i] <= nb[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}
