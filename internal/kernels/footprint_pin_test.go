package kernels

import (
	"hash/fnv"
	"testing"

	"laperm/internal/isa"
)

// footprintPin summarizes TB.Footprint over every thread block of a
// workload's program tree (parents and all transitive children, in
// Kernel.Walk order): the block count, the total footprint size, and an
// FNV-64a hash of every footprint in order.
type footprintPin struct {
	tbs   int
	lines int
	hash  uint64
}

func pinFootprints(k *isa.Kernel) footprintPin {
	var p footprintPin
	h := fnv.New64a()
	var buf [8]byte
	k.Walk(func(_, g *isa.Kernel) {
		for _, tb := range g.TBs {
			fp := tb.Footprint()
			p.tbs++
			p.lines += len(fp)
			for _, b := range append(fp, ^uint64(0)) {
				for i := range buf {
					buf[i] = byte(b >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	})
	p.hash = h.Sum64()
	return p
}

// TestFootprintPinned: the per-TB footprints of every tiny Table II program
// (the input of Figure 2's shared-footprint ratios) equal the values
// recorded when memory instructions still carried per-lane addresses rather
// than coalesced lines.
func TestFootprintPinned(t *testing.T) {
	want := map[string]footprintPin{
		"amr":           {86, 644, 5275159452416168993},
		"bht":           {101, 1094, 11194667341173421760},
		"bfs-citation":  {176, 4776, 677388136566412507},
		"bfs-graph5":    {366, 12343, 6568757603045087144},
		"bfs-cage15":    {347, 3406, 14637605929797004094},
		"clr-citation":  {176, 3259, 16011806928329484305},
		"clr-graph5":    {366, 8074, 3633123370346995695},
		"clr-cage15":    {347, 2592, 8606936621838333579},
		"regx-darpa":    {588, 22678, 18102738908056107842},
		"regx-strings":  {203, 8008, 10508663014897092363},
		"pre-movielens": {454, 11196, 18129509811431090480},
		"join-uniform":  {160, 2555, 16850366935705701144},
		"join-gaussian": {160, 2856, 17558006558784624650},
		"sssp-citation": {176, 5687, 12239749916394063160},
		"sssp-graph5":   {366, 13396, 9078466975087678273},
		"sssp-cage15":   {347, 4713, 13057990446106886527},
	}
	for _, w := range All() {
		got := pinFootprints(w.Build(ScaleTiny))
		if got != want[w.Name] {
			t.Errorf("%s: footprints %+v, want %+v", w.Name, got, want[w.Name])
		}
	}
}
