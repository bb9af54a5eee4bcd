// multilevel_bfs runs a complete breadth-first traversal, not just one
// level: the host-side reference BFS computes the real frontiers of a
// generated graph, then each level becomes one host kernel whose parent TBs
// own actual frontier vertices and delegate the high-degree ones to child
// TBs — the full algorithmic loop the paper's BFS benchmark iterates.
// Because all levels are submitted together, later levels' parents overlap
// with earlier levels' children on the machine.
//
// This example deliberately exposes a structural limit of the Figure 6
// flow: BFS frontiers are wildly uneven, so a small early level's hub
// children all bind to one or two SMXs, while stage 2 keeps feeding the
// other SMXs parent TBs from later levels instead of letting stage 3 steal
// from the overloaded bank. On this shape the binding schedulers lose to
// plain round-robin — dispatching parents before stolen children is exactly
// what the paper's scheduler specifies, and it is the right call only when
// parent supply, not a clogged bank, is the bottleneck. The Table II
// workloads (single kernel, dense launches) are the regime LaPerm targets;
// compare examples/bfs.
package main

import (
	"fmt"
	"log"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/graph"
	"laperm/internal/isa"
)

const (
	rowPtrBase   = 0x0000_0000
	colBase      = 0x1000_0000
	levelBase    = 0x2000_0000
	frontierBase = 0x3000_0000
	tbThreads    = 64
	degThreshold = 16
)

// levelKernel builds the expansion kernel for one BFS frontier.
func levelKernel(g *graph.CSR, frontier []int32, level int) *isa.Kernel {
	kb := isa.NewKernel(fmt.Sprintf("bfs-level-%d", level))
	for base := 0; base < len(frontier); base += tbThreads {
		n := len(frontier) - base
		if n > tbThreads {
			n = tbThreads
		}
		b := isa.NewTB(tbThreads).Resources(24, 0)
		vertexOf := func(tid int) int { return int(frontier[base+tid%n]) }

		// Row bounds and level of each owned frontier vertex.
		b.Load(func(tid int) uint64 { return rowPtrBase + uint64(vertexOf(tid))*4 })
		b.Load(func(tid int) uint64 { return rowPtrBase + uint64(vertexOf(tid)+1)*4 })
		b.Compute(8)
		b.Load(func(tid int) uint64 { return levelBase + uint64(vertexOf(tid))*4 })
		b.Compute(8)

		for t := 0; t < n; t++ {
			v := vertexOf(t)
			if g.Degree(v) > degThreshold {
				b.Launch(t, expandChild(g, v, level))
			}
		}

		// Inline expansion of the low-degree vertices.
		for step := 0; step < degThreshold; step++ {
			addrs := make([]uint64, tbThreads)
			active := make([]bool, tbThreads)
			any := false
			for t := 0; t < tbThreads; t++ {
				v := vertexOf(t)
				if d := g.Degree(v); d <= degThreshold && step < d {
					addrs[t] = colBase + uint64(int(g.RowPtr[v])+step)*4
					active[t] = true
					any = true
				}
			}
			if any {
				b.LoadMasked(addrs, active)
			}
		}
		b.Compute(8)
		b.Store(func(tid int) uint64 { return frontierBase + uint64(vertexOf(tid))*4 })
		kb.Add(b.Build())
	}
	return kb.Build()
}

// expandChild streams the full adjacency of a high-degree vertex.
func expandChild(g *graph.CSR, v, level int) *isa.Kernel {
	deg := g.Degree(v)
	row := int(g.RowPtr[v])
	kb := isa.NewKernel(fmt.Sprintf("bfs-child-%d", level))
	for off := 0; off < deg; off += tbThreads {
		n := deg - off
		if n > tbThreads {
			n = tbThreads
		}
		b := isa.NewTB(tbThreads).Resources(20, 0)
		b.Load(func(tid int) uint64 { return rowPtrBase + uint64(v)*4 })
		addrs := make([]uint64, tbThreads)
		active := make([]bool, tbThreads)
		for t := 0; t < n; t++ {
			addrs[t] = colBase + uint64(row+off+t)*4
			active[t] = true
		}
		b.LoadMasked(addrs, active)
		b.Compute(6)
		for t := 0; t < n; t++ {
			addrs[t] = levelBase + uint64(g.Col[row+off+t])*4
		}
		b.LoadMasked(addrs, active)
		b.Compute(6)
		for t := 0; t < n; t++ {
			addrs[t] = frontierBase + uint64(g.Col[row+off+t])*4
		}
		b.StoreMasked(addrs, active)
		kb.Add(b.Build())
	}
	return kb.Build()
}

func main() {
	g := graph.Citation(16384, 5, 42)
	levels, frontiers := graph.BFSLevels(g, 0)
	reached := 0
	for _, l := range levels {
		if l >= 0 {
			reached++
		}
	}
	fmt.Printf("graph: %d vertices, %d edges; BFS from 0 reaches %d in %d levels\n",
		g.NumVertices(), g.NumEdges(), reached, len(frontiers))

	for _, schedName := range []string{"rr", "adaptive-bind"} {
		cfg := config.KeplerK20c()
		sched, err := core.NewSchedulerFor(schedName, &cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := gpu.New(gpu.Options{Config: &cfg, Scheduler: sched, Model: gpu.DTBL})
		if err != nil {
			log.Fatal(err)
		}
		for li, frontier := range frontiers {
			if len(frontier) == 0 {
				continue
			}
			if err := sim.LaunchHost(levelKernel(g, frontier, li)); err != nil {
				log.Fatal(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	}
}
