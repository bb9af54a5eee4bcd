package isa

import (
	"fmt"
	"math"
	"slices"

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

// push appends an instruction to warp w with arg as its operand. An operand
// that does not fit in Arg is recorded as the block's build error, which
// Kernel.Validate reports, and the instruction keeps a zero Arg.
func (b *TBBuilder) push(w int, kind OpKind, lanes, nlines, arg int) {
	in := Inst{Kind: kind, ActiveLanes: uint8(lanes), NLines: uint8(nlines)}
	if arg < 0 || uint64(arg) > math.MaxUint32 {
		b.fail(w, fmt.Errorf("%s %d does not fit in 32 bits", operandName[kind], arg))
	} else {
		in.Arg = uint32(arg)
	}
	b.tb.Warps[w] = append(b.tb.Warps[w], in)
}

// operandName names what Arg holds for each op kind that has an operand.
var operandName = [...]string{
	OpCompute: "compute latency",
	OpLoad:    "line arena offset",
	OpStore:   "line arena offset",
	OpLaunch:  "launch index",
}

// fail records err against the next instruction of warp w, unless the block
// already has a build error.
func (b *TBBuilder) fail(w int, err error) {
	if b.tb.buildErr == nil {
		b.tb.buildErr = &InstError{Warp: w, Inst: len(b.tb.Warps[w]), Err: err}
	}
}

// Compute appends one compute instruction of the given latency to every
// warp.
func (b *TBBuilder) Compute(latency int) *TBBuilder {
	for w := range b.tb.Warps {
		b.push(w, OpCompute, b.lanesOf(w), 0, latency)
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
		b.pushMem(w, kind, addrs[:lanes])
	}
	return b
}

// pushMem appends to warp w a memory instruction whose active lanes access
// addrs. It is the coalescer: the distinct lines the lanes touch, in
// first-touch lane order, go straight into the block's line arena as line
// IDs (a warp has at most 32 lanes, so the dedup is a linear scan of the
// instruction's own lines). A line ID that does not fit in 32 bits is
// recorded as the block's build error, as is an arena offset past Arg's
// range, in which case the arena is left as it is.
func (b *TBBuilder) pushMem(w int, kind OpKind, addrs []uint64) {
	tb := b.tb
	off := len(tb.Lines)
	if uint64(off) <= math.MaxUint32 {
		for _, a := range addrs {
			id := a / config.LineSize
			if id > math.MaxUint32 {
				b.fail(w, fmt.Errorf("lane address %#x has line ID %#x, which does not fit in 32 bits", a, id))
				continue
			}
			if !slices.Contains(tb.Lines[off:], uint32(id)) {
				tb.Lines = append(tb.Lines, uint32(id))
			}
		}
	}
	b.push(w, kind, len(addrs), len(tb.Lines)-off, off)
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
		b.pushMem(w, kind, lane[:n])
	}
	return b
}

// Barrier appends a block-wide barrier to every warp.
func (b *TBBuilder) Barrier() *TBBuilder {
	for w := range b.tb.Warps {
		b.push(w, OpBarrier, b.lanesOf(w), 0, 0)
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
	b.push(tid/config.WarpSize, OpLaunch, 1, 0, idx)
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
