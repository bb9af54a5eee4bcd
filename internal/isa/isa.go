// Package isa defines the abstract warp instruction set executed by the
// simulator, and builders for constructing thread-block programs.
//
// The LaPerm study is about thread-block scheduling and the memory-system
// behaviour it induces, so programs are represented as per-warp instruction
// streams with explicit memory transactions rather than as compiled PTX:
// compute instructions occupy the pipeline for a latency, memory
// instructions carry the coalesced 128-byte lines their active lanes touch
// (the builders coalesce each instruction's per-lane addresses once, at build
// time), and launch instructions spawn child grids (device kernels under
// CDP, thread-block groups under DTBL).
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

// Inst is one warp instruction.
type Inst struct {
	Kind OpKind

	// Latency is the pipeline occupancy in cycles for OpCompute.
	Latency int

	// Lines holds the coalesced memory transactions of OpLoad/OpStore:
	// the distinct line-aligned byte addresses its active lanes touch, in
	// first-touch lane order (Coalesce of the per-lane addresses). The SMX
	// issues them in this order and never writes to the slice.
	Lines []uint64

	// ActiveLanes is the number of threads executing the instruction;
	// used for per-thread instruction counting (IPC). For memory ops it
	// is at least len(Lines).
	ActiveLanes int

	// Launch indexes the owning thread block's Launches slice for
	// OpLaunch.
	Launch int
}

// TB is the program of one thread block: one instruction stream per warp
// plus the resources the block occupies on an SMX.
type TB struct {
	// Threads is the number of threads in the block.
	Threads int
	// Warps holds one instruction stream per warp. Warp w covers threads
	// [w*32, min((w+1)*32, Threads)).
	Warps [][]Inst
	// RegistersPerThread and SharedMemBytes are the per-block resource
	// demands used for SMX occupancy accounting.
	RegistersPerThread int
	SharedMemBytes     int
	// Launches lists the child grids this block may launch; OpLaunch
	// instructions refer to entries by index.
	Launches []*Kernel
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
			for _, l := range in.Lines {
				seen[l/config.LineSize] = struct{}{}
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

// Validate reports an error if any instruction is malformed: launches out of
// range, memory ops whose lines are not a coalescer's output (none, more than
// the active lanes, unaligned, or repeated), non-positive compute latency, or
// lane counts exceeding the warp width. Success is remembered — a later call
// returns nil at once — while a failure is reported again on every call.
// Validate is safe for concurrent use.
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
		for wi, w := range tb.Warps {
			for ii := range w {
				in := &w[ii]
				if in.ActiveLanes <= 0 || in.ActiveLanes > config.WarpSize {
					return fmt.Errorf("isa: kernel %q TB %d warp %d inst %d has %d active lanes",
						k.Name, ti, wi, ii, in.ActiveLanes)
				}
				switch in.Kind {
				case OpCompute:
					if in.Latency <= 0 {
						return fmt.Errorf("isa: kernel %q TB %d warp %d inst %d compute latency %d",
							k.Name, ti, wi, ii, in.Latency)
					}
				case OpLoad, OpStore:
					if err := in.checkLines(); err != nil {
						return fmt.Errorf("isa: kernel %q TB %d warp %d inst %d %w", k.Name, ti, wi, ii, err)
					}
				case OpLaunch:
					if in.Launch < 0 || in.Launch >= len(tb.Launches) {
						return fmt.Errorf("isa: kernel %q TB %d warp %d inst %d launch index %d out of %d",
							k.Name, ti, wi, ii, in.Launch, len(tb.Launches))
					}
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

// checkLines reports why a memory instruction's Lines could not have come
// from Coalesce of its active lanes' addresses.
func (in *Inst) checkLines() error {
	if len(in.Lines) == 0 {
		return fmt.Errorf("memory op without lines")
	}
	if len(in.Lines) > in.ActiveLanes {
		return fmt.Errorf("has %d lines for %d lanes", len(in.Lines), in.ActiveLanes)
	}
	for i, l := range in.Lines {
		if l%config.LineSize != 0 {
			return fmt.Errorf("line %#x is not %d-byte aligned", l, config.LineSize)
		}
		if slices.Contains(in.Lines[:i], l) {
			return fmt.Errorf("repeats line %#x", l)
		}
	}
	return nil
}

// Coalesce maps per-lane byte addresses onto the minimal set of 128-byte
// memory transactions, in first-touch order, exactly as the hardware
// coalescer does for a warp memory instruction; the builders store its
// result as Inst.Lines. A warp has at most 32 lanes, so the dedup is a
// linear scan rather than a map, and the result is allocated at its exact
// length because built programs keep it for their lifetime.
func Coalesce(addrs []uint64) []uint64 {
	var buf [config.WarpSize]uint64
	lines := buf[:0]
	for _, a := range addrs {
		if l := a / config.LineSize * config.LineSize; !slices.Contains(lines, l) {
			lines = append(lines, l)
		}
	}
	return append(make([]uint64, 0, len(lines)), lines...)
}
