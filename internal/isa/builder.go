package isa

import (
	"fmt"

	"laperm/internal/config"
)

// TBBuilder assembles the program of one thread block. Methods append
// instructions across all warps of the block (mirroring SPMD source code
// where every thread executes the same statements); per-thread behaviour is
// expressed through address functions of the thread index.
type TBBuilder struct {
	tb *TB
}

// NewTB returns a builder for a thread block with the given thread count.
func NewTB(threads int) *TBBuilder {
	if threads <= 0 {
		panic(fmt.Sprintf("isa: NewTB(%d): thread count must be positive", threads))
	}
	warps := (threads + config.WarpSize - 1) / config.WarpSize
	return &TBBuilder{tb: &TB{
		Threads:            threads,
		Warps:              make([][]Inst, warps),
		RegistersPerThread: 24,
	}}
}

// Resources sets the per-thread register and per-block shared-memory demand.
func (b *TBBuilder) Resources(regsPerThread, sharedMemBytes int) *TBBuilder {
	b.tb.RegistersPerThread = regsPerThread
	b.tb.SharedMemBytes = sharedMemBytes
	return b
}

// lanesOf returns the number of active lanes in warp w.
func (b *TBBuilder) lanesOf(w int) int {
	lanes := b.tb.Threads - w*config.WarpSize
	if lanes > config.WarpSize {
		lanes = config.WarpSize
	}
	return lanes
}

// Compute appends one compute instruction of the given latency to every
// warp.
func (b *TBBuilder) Compute(latency int) *TBBuilder {
	for w := range b.tb.Warps {
		b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
			Kind:        OpCompute,
			Latency:     latency,
			ActiveLanes: b.lanesOf(w),
		})
	}
	return b
}

// ComputeN appends n compute instructions of the given latency.
func (b *TBBuilder) ComputeN(latency, n int) *TBBuilder {
	for i := 0; i < n; i++ {
		b.Compute(latency)
	}
	return b
}

// Load appends one load where thread tid accesses addrFn(tid).
func (b *TBBuilder) Load(addrFn func(tid int) uint64) *TBBuilder {
	return b.mem(OpLoad, addrFn)
}

// Store appends one store where thread tid accesses addrFn(tid).
func (b *TBBuilder) Store(addrFn func(tid int) uint64) *TBBuilder {
	return b.mem(OpStore, addrFn)
}

func (b *TBBuilder) mem(kind OpKind, addrFn func(tid int) uint64) *TBBuilder {
	var addrs [config.WarpSize]uint64
	for w := range b.tb.Warps {
		lanes := b.lanesOf(w)
		for l := 0; l < lanes; l++ {
			addrs[l] = addrFn(w*config.WarpSize + l)
		}
		b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
			Kind:        kind,
			Lines:       Coalesce(addrs[:lanes]),
			ActiveLanes: lanes,
		})
	}
	return b
}

// LoadSeq appends a coalesced load of `words` consecutive 4-byte words per
// thread starting at base: thread tid reads base + tid*4 (repeated for each
// word with a stride of blockDim words). It models the canonical
// structured-access pattern of a well-written kernel.
func (b *TBBuilder) LoadSeq(base uint64, words int) *TBBuilder {
	for i := 0; i < words; i++ {
		off := uint64(i*b.tb.Threads) * 4
		b.Load(func(tid int) uint64 { return base + off + uint64(tid)*4 })
	}
	return b
}

// StoreSeq is the store analogue of LoadSeq.
func (b *TBBuilder) StoreSeq(base uint64, words int) *TBBuilder {
	for i := 0; i < words; i++ {
		off := uint64(i*b.tb.Threads) * 4
		b.Store(func(tid int) uint64 { return base + off + uint64(tid)*4 })
	}
	return b
}

// LoadGather appends one load with an explicit per-thread address table
// (len(addrs) must equal the thread count). It models data-dependent,
// irregular accesses such as CSR neighbour expansion.
func (b *TBBuilder) LoadGather(addrs []uint64) *TBBuilder {
	if len(addrs) != b.tb.Threads {
		panic(fmt.Sprintf("isa: LoadGather: %d addresses for %d threads", len(addrs), b.tb.Threads))
	}
	return b.Load(func(tid int) uint64 { return addrs[tid] })
}

// LoadMasked appends one load with per-thread predication: thread tid
// accesses addrs[tid] only when active[tid] is true. Warps whose lanes are
// all inactive receive no instruction (the hardware analogue of a fully
// predicated-off memory op). Both slices must have one entry per thread.
func (b *TBBuilder) LoadMasked(addrs []uint64, active []bool) *TBBuilder {
	return b.memMasked(OpLoad, addrs, active)
}

// StoreMasked is the store analogue of LoadMasked.
func (b *TBBuilder) StoreMasked(addrs []uint64, active []bool) *TBBuilder {
	return b.memMasked(OpStore, addrs, active)
}

func (b *TBBuilder) memMasked(kind OpKind, addrs []uint64, active []bool) *TBBuilder {
	if len(addrs) != b.tb.Threads || len(active) != b.tb.Threads {
		panic(fmt.Sprintf("isa: masked op: %d addrs / %d mask entries for %d threads",
			len(addrs), len(active), b.tb.Threads))
	}
	var lane [config.WarpSize]uint64
	for w := range b.tb.Warps {
		n := 0
		for l := 0; l < b.lanesOf(w); l++ {
			tid := w*config.WarpSize + l
			if active[tid] {
				lane[n] = addrs[tid]
				n++
			}
		}
		if n == 0 {
			continue
		}
		b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
			Kind:        kind,
			Lines:       Coalesce(lane[:n]),
			ActiveLanes: n,
		})
	}
	return b
}

// Barrier appends a block-wide barrier to every warp.
func (b *TBBuilder) Barrier() *TBBuilder {
	for w := range b.tb.Warps {
		b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
			Kind:        OpBarrier,
			ActiveLanes: b.lanesOf(w),
		})
	}
	return b
}

// Launch appends a device-side launch of child, executed by the single
// thread tid (the "direct parent" thread of Section II-C). The launch
// instruction is appended only to the warp containing tid.
func (b *TBBuilder) Launch(tid int, child *Kernel) *TBBuilder {
	if tid < 0 || tid >= b.tb.Threads {
		panic(fmt.Sprintf("isa: Launch: tid %d out of %d threads", tid, b.tb.Threads))
	}
	if child == nil || len(child.TBs) == 0 {
		panic("isa: Launch: child grid must have at least one thread block")
	}
	idx := len(b.tb.Launches)
	b.tb.Launches = append(b.tb.Launches, child)
	w := tid / config.WarpSize
	b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
		Kind:        OpLaunch,
		ActiveLanes: 1,
		Launch:      idx,
	})
	return b
}

// Build finalises and returns the thread-block program.
func (b *TBBuilder) Build() *TB { return b.tb }

// KernelBuilder assembles a grid from thread-block programs.
type KernelBuilder struct {
	k *Kernel
}

// NewKernel returns a builder for a named grid.
func NewKernel(name string) *KernelBuilder {
	return &KernelBuilder{k: &Kernel{Name: name}}
}

// Add appends thread blocks to the grid.
func (b *KernelBuilder) Add(tbs ...*TB) *KernelBuilder {
	b.k.TBs = append(b.k.TBs, tbs...)
	return b
}

// Build finalises and returns the grid.
func (b *KernelBuilder) Build() *Kernel { return b.k }
