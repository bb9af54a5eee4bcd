// Package graph provides the Compressed Sparse Row graph substrate used by
// the graph benchmarks (BFS, SSSP, CLR) of Table II, plus synthetic input
// generators standing in for the paper's data sets:
//
//   - Citation generates a clustered graph with strong index locality, the
//     property the paper attributes to the citation-network input
//     (Section III-A: "vertices are more likely to connect to their
//     (spatially) closer neighbors").
//   - RMAT generates a Graph500-style R-MAT graph where vertices connect
//     "all over the graph", giving children distributed memory accesses.
//   - Banded generates a banded sparse-matrix graph standing in for the
//     Cage15 matrix, whose nonzeros concentrate near the diagonal.
//
// BFSLevels is the host-side reference traversal used for workload
// construction.
package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// CSR is a directed graph in Compressed Sparse Row form. Neighbours of
// vertex v are Col[RowPtr[v]:RowPtr[v+1]], stored in ascending order.
type CSR struct {
	RowPtr []int32
	Col    []int32
}

// NumVertices returns the vertex count.
func (g *CSR) NumVertices() int { return len(g.RowPtr) - 1 }

// NumEdges returns the directed edge count.
func (g *CSR) NumEdges() int { return len(g.Col) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

// Neighbors returns the adjacency slice of v (shared storage; do not
// mutate).
func (g *CSR) Neighbors(v int) []int32 { return g.Col[g.RowPtr[v]:g.RowPtr[v+1]] }

// Validate reports an error if the CSR arrays are inconsistent.
func (g *CSR) Validate() error {
	if len(g.RowPtr) == 0 {
		return fmt.Errorf("graph: empty RowPtr")
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d, want 0", g.RowPtr[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.RowPtr[v+1] < g.RowPtr[v] {
			return fmt.Errorf("graph: RowPtr not monotone at %d", v)
		}
	}
	if int(g.RowPtr[n]) != len(g.Col) {
		return fmt.Errorf("graph: RowPtr[n]=%d but %d columns", g.RowPtr[n], len(g.Col))
	}
	for i, c := range g.Col {
		if c < 0 || int(c) >= n {
			return fmt.Errorf("graph: Col[%d]=%d out of [0,%d)", i, c, n)
		}
	}
	return nil
}

// FromEdges builds a CSR with n vertices from an edge list, deduplicating
// parallel edges and dropping self-loops. Adjacency lists are sorted.
func FromEdges(n int, edges [][2]int32) *CSR {
	adj := make([][]int32, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v || u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			continue
		}
		adj[u] = append(adj[u], v)
	}
	rowPtr := make([]int32, n+1)
	var col []int32
	for u := 0; u < n; u++ {
		a := adj[u]
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		last := int32(-1)
		for _, v := range a {
			if v != last {
				col = append(col, v)
				last = v
			}
		}
		rowPtr[u+1] = int32(len(col))
	}
	return &CSR{RowPtr: rowPtr, Col: col}
}

// Citation generates a clustered, locality-heavy graph: each vertex links to
// avgDegree neighbours drawn from a window of nearby (lower-numbered)
// vertices, with a small fraction of long-range links. In CSR order this
// yields sibling subgraphs stored closely together, like the paper's
// citation-network input.
func Citation(n, avgDegree int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	window := n / 16
	if window < 8 {
		window = 8
	}
	var edges [][2]int32
	for v := 1; v < n; v++ {
		deg := 1 + rng.Intn(2*avgDegree)
		for i := 0; i < deg; i++ {
			var u int
			if rng.Float64() < 0.9 {
				// Cite a nearby, earlier vertex.
				lo := v - window
				if lo < 0 {
					lo = 0
				}
				u = lo + rng.Intn(v-lo)
			} else {
				u = rng.Intn(v)
			}
			edges = append(edges, [2]int32{int32(v), int32(u)})
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	return FromEdges(n, edges)
}

// RMAT generates a Graph500-style recursive-matrix graph with 2^scale
// vertices and edgeFactor edges per vertex, using the standard
// (0.57, 0.19, 0.19, 0.05) partition probabilities. Connectivity is
// scattered across the whole vertex range.
func RMAT(scale, edgeFactor int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := n * edgeFactor
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([][2]int32, 0, 2*m)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
		edges = append(edges, [2]int32{int32(v), int32(u)})
	}
	return FromEdges(n, edges)
}

// Banded generates a banded sparse-matrix graph standing in for Cage15:
// vertex v connects to roughly avgDegree vertices within ±bandwidth of v,
// so neighbours are stored almost contiguously in CSR order.
func Banded(n, avgDegree, bandwidth int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int32
	for v := 0; v < n; v++ {
		deg := 1 + rng.Intn(2*avgDegree)
		for i := 0; i < deg; i++ {
			off := rng.Intn(2*bandwidth+1) - bandwidth
			u := v + off
			if u < 0 || u >= n || u == v {
				continue
			}
			edges = append(edges, [2]int32{int32(v), int32(u)})
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	return FromEdges(n, edges)
}

// BFSLevels returns the breadth-first level of every vertex from src (-1 for
// unreachable vertices) and the vertices of each frontier in order.
func BFSLevels(g *CSR, src int) (levels []int32, frontiers [][]int32) {
	n := g.NumVertices()
	levels = make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	cur := []int32{int32(src)}
	for len(cur) > 0 {
		frontiers = append(frontiers, cur)
		var next []int32
		for _, v := range cur {
			for _, w := range g.Neighbors(int(v)) {
				if levels[w] == -1 {
					levels[w] = levels[v] + 1
					next = append(next, w)
				}
			}
		}
		cur = next
	}
	return levels, frontiers
}

// LocalityIndex measures how concentrated adjacency is in index space: the
// mean of |v - u| / n over all edges (u, v), in [0, 1). Banded and citation
// graphs score low; R-MAT scores high. The paper's child-sibling footprint
// variation is driven by exactly this property.
func LocalityIndex(g *CSR) float64 {
	n := g.NumVertices()
	if g.NumEdges() == 0 || n == 0 {
		return 0
	}
	var sum float64
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			d := int(u) - v
			if d < 0 {
				d = -d
			}
			sum += float64(d) / float64(n)
		}
	}
	return sum / float64(g.NumEdges())
}
