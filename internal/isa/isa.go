// Package isa defines the abstract warp instruction set executed by the
// simulator, and builders for constructing thread-block programs.
//
// The LaPerm study is about thread-block scheduling and the memory-system
// behaviour it induces, so programs are represented as per-warp instruction
// streams with explicit memory transactions rather than as compiled PTX:
// compute instructions occupy the pipeline for a latency, memory
// instructions carry the coalesced 128-byte lines their active lanes touch,
// and launch instructions spawn child grids (device kernels under CDP,
// thread-block groups under DTBL).
//
// The encoding is compact and pointer-free, because the memoized workload
// programs are most of the simulator's heap: an Inst is an 8-byte record
// whose one operand is a latency, a launch index, or an offset into its
// thread block's line arena, where the builders coalesce each memory
// instruction's per-lane addresses once, at build time, into 32-bit line
// IDs. An operand that does not fit is recorded by the builder and reported
// by Kernel.Validate rather than wrapped.
//
// Programs are immutable once validated or launched: Kernel.Validate
// remembers success rather than re-walking the program, and the simulator
// reads programs (shared between concurrent runs) for the whole of a run.
// Build a new program instead of editing one in place.
package isa

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"laperm/internal/config"
)

// OpKind discriminates instruction behaviour.
type OpKind uint8

const (
	// OpCompute occupies the warp for Latency cycles.
	OpCompute OpKind = iota
	// OpLoad reads the instruction's lines through the cache hierarchy.
	OpLoad
	// OpStore writes the instruction's lines (write-through past the L1,
	// as on Kepler).
	OpStore
	// OpBarrier blocks the warp until every warp of its thread block has
	// reached the same barrier.
	OpBarrier
	// OpLaunch performs a device-side launch of the child grid identified
	// by the instruction's Launch index into the thread block's Launches
	// list.
	OpLaunch
)

// String returns the mnemonic for the op kind.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBarrier:
		return "barrier"
	case OpLaunch:
		return "launch"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Inst is one warp instruction: a fixed-size record holding no pointers, so
// a built program's instruction streams are flat arrays the garbage
// collector never scans. A memory instruction's coalesced lines live in its
// thread block's Lines arena (TB.LinesOf).
type Inst struct {
	Kind OpKind

	// ActiveLanes is the number of threads executing the instruction;
	// used for per-thread instruction counting (IPC). For memory ops it
	// is at least NLines.
	ActiveLanes uint8

	// NLines is the number of coalesced memory transactions of
	// OpLoad/OpStore.
	NLines uint8

	// Arg is the kind's operand: the pipeline occupancy in cycles of
	// OpCompute, the index into the thread block's Launches of OpLaunch,
	// and the offset of the instruction's first line in the thread
	// block's Lines of OpLoad/OpStore.
	Arg uint32
}

// TB is the program of one thread block: one instruction stream per warp
// plus the resources the block occupies on an SMX.
type TB struct {
	// Threads is the number of threads in the block.
	Threads int
	// Warps holds one instruction stream per warp. Warp w covers threads
	// [w*32, min((w+1)*32, Threads)).
	Warps [][]Inst
	// Lines is the line arena of the block's memory instructions: each
	// one's coalesced transactions as line IDs (byte address / LineSize),
	// the distinct lines its active lanes touch in first-touch lane order,
	// stored contiguously from its Arg.
	Lines []uint32
	// RegistersPerThread and SharedMemBytes are the per-block resource
	// demands used for SMX occupancy accounting.
	RegistersPerThread int
	SharedMemBytes     int
	// Launches lists the child grids this block may launch; OpLaunch
	// instructions refer to entries by index.
	Launches []*Kernel

	// buildErr is the first operand the builder could not encode; Validate
	// reports it.
	buildErr *InstError
}

// LinesOf returns the line IDs of memory instruction in, a sub-slice of the
// arena clipped to its length so an append cannot reach a neighbour's lines.
// The SMX issues them in this order and never writes to the slice.
func (tb *TB) LinesOf(in *Inst) []uint32 {
	off := int(in.Arg)
	end := off + int(in.NLines)
	return tb.Lines[off:end:end]
}

// NumWarps returns the number of warps in the block.
func (tb *TB) NumWarps() int { return len(tb.Warps) }

// Registers returns the total register demand of the block.
func (tb *TB) Registers() int { return tb.RegistersPerThread * tb.Threads }

// InstCount returns the total per-thread instruction count of the block
// (warp instructions weighted by active lanes), excluding child blocks.
func (tb *TB) InstCount() int64 {
	var n int64
	for _, w := range tb.Warps {
		for i := range w {
			n += int64(w[i].ActiveLanes)
		}
	}
	return n
}

// Footprint returns the sorted set of 128-byte block addresses referenced by
// the thread block's memory instructions, excluding children. This is the
// unit used by the shared-footprint methodology of Section III-A.
func (tb *TB) Footprint() []uint64 {
	seen := make(map[uint64]struct{})
	for _, w := range tb.Warps {
		for i := range w {
			in := &w[i]
			if in.Kind != OpLoad && in.Kind != OpStore {
				continue
			}
			for _, id := range tb.LinesOf(in) {
				seen[uint64(id)] = struct{}{}
			}
		}
	}
	out := make([]uint64, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Kernel is a grid: an ordered list of thread-block programs. Device-side
// launches reference child Kernels; under DTBL the same structure is treated
// as a thread-block group.
//
// A Kernel, its TBs and everything they reach must not be modified once the
// kernel has been validated or launched: Validate remembers success, and
// the simulator reads the program while a run is in progress (memoized
// programs are shared by concurrent runs).
type Kernel struct {
	Name string
	TBs  []*TB

	// validated records that Validate succeeded, so later calls (one per
	// host launch, and one per parent that launches a shared child) return
	// without walking the program again.
	validated atomic.Bool
}

// InstCount returns the total per-thread instruction count of the grid,
// excluding nested children.
func (k *Kernel) InstCount() int64 {
	var n int64
	for _, tb := range k.TBs {
		n += tb.InstCount()
	}
	return n
}

// TotalInstCount returns the per-thread instruction count of the grid and
// every grid transitively launched from it.
func (k *Kernel) TotalInstCount() int64 {
	n := k.InstCount()
	for _, tb := range k.TBs {
		for _, c := range tb.Launches {
			n += c.TotalInstCount()
		}
	}
	return n
}

// Walk visits k and every transitively launched child grid in depth-first
// order. The parent argument is nil for the root.
func (k *Kernel) Walk(visit func(parent, child *Kernel)) {
	visit(nil, k)
	k.walkChildren(visit)
}

func (k *Kernel) walkChildren(visit func(parent, child *Kernel)) {
	for _, tb := range k.TBs {
		for _, c := range tb.Launches {
			visit(k, c)
			c.walkChildren(visit)
		}
	}
}

// InstError is Validate's report of a malformed instruction, or of an
// operand its builder could not encode (a line ID, compute latency, launch
// index or arena offset that does not fit in 32 bits).
type InstError struct {
	Kernel         string
	TB, Warp, Inst int
	Err            error
}

func (e *InstError) Error() string {
	return fmt.Sprintf("isa: kernel %q TB %d warp %d inst %d: %v", e.Kernel, e.TB, e.Warp, e.Inst, e.Err)
}

func (e *InstError) Unwrap() error { return e.Err }

// Validate reports an error if any thread block records an operand its
// builder could not encode, or any instruction is malformed: launches out
// of range, memory ops whose lines are not a coalescer's output (none, more
// than the active lanes, outside the arena, or repeated), zero compute
// latency, or lane counts outside the warp width; instruction errors are
// *InstError. Success is remembered — a later call returns nil at once —
// while a failure is reported again on every call. Validate is safe for
// concurrent use.
func (k *Kernel) Validate() error {
	if k.validated.Load() {
		return nil
	}
	if err := k.validate(); err != nil {
		return err
	}
	k.validated.Store(true)
	return nil
}

func (k *Kernel) validate() error {
	for ti, tb := range k.TBs {
		if tb.Threads <= 0 {
			return fmt.Errorf("isa: kernel %q TB %d has %d threads", k.Name, ti, tb.Threads)
		}
		wantWarps := (tb.Threads + config.WarpSize - 1) / config.WarpSize
		if len(tb.Warps) != wantWarps {
			return fmt.Errorf("isa: kernel %q TB %d has %d warps for %d threads, want %d",
				k.Name, ti, len(tb.Warps), tb.Threads, wantWarps)
		}
		if tb.buildErr != nil {
			e := *tb.buildErr // the program is shared: never write to it
			e.Kernel, e.TB = k.Name, ti
			return &e
		}
		for wi, w := range tb.Warps {
			for ii := range w {
				if err := tb.check(&w[ii]); err != nil {
					return &InstError{Kernel: k.Name, TB: ti, Warp: wi, Inst: ii, Err: err}
				}
			}
		}
		for _, c := range tb.Launches {
			if err := c.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// check reports why in is malformed in thread block tb.
func (tb *TB) check(in *Inst) error {
	if in.ActiveLanes == 0 || in.ActiveLanes > config.WarpSize {
		return fmt.Errorf("has %d active lanes", in.ActiveLanes)
	}
	switch in.Kind {
	case OpCompute:
		if in.Arg == 0 {
			return fmt.Errorf("compute latency 0")
		}
	case OpLoad, OpStore:
		return tb.checkLines(in)
	case OpLaunch:
		if int(in.Arg) >= len(tb.Launches) {
			return fmt.Errorf("launch index %d out of %d", in.Arg, len(tb.Launches))
		}
	}
	return nil
}

// checkLines reports why a memory instruction's lines could not have come
// from coalescing its active lanes' addresses into the arena.
func (tb *TB) checkLines(in *Inst) error {
	if in.NLines == 0 {
		return fmt.Errorf("memory op without lines")
	}
	if in.NLines > in.ActiveLanes {
		return fmt.Errorf("has %d lines for %d lanes", in.NLines, in.ActiveLanes)
	}
	if end := int(in.Arg) + int(in.NLines); end > len(tb.Lines) {
		return fmt.Errorf("lines [%d, %d) outside the %d-line arena", in.Arg, end, len(tb.Lines))
	}
	lines := tb.LinesOf(in)
	for i, id := range lines {
		if slices.Contains(lines[:i], id) {
			return fmt.Errorf("repeats line ID %#x", id)
		}
	}
	return nil
}
