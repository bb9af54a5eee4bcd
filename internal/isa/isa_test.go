package isa

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"laperm/internal/config"
)

// Coalesce maps per-lane byte addresses onto the minimal set of 128-byte
// memory transactions, in first-touch order, exactly as the hardware
// coalescer does for a warp memory instruction. It is the reference the
// builders' in-arena coalescer is held to.
func Coalesce(addrs []uint64) []uint64 {
	var lines []uint64
	for _, a := range addrs {
		if l := a / config.LineSize * config.LineSize; !slices.Contains(lines, l) {
			lines = append(lines, l)
		}
	}
	return lines
}

// lineAddrs returns the byte addresses of memory instruction in's lines.
func lineAddrs(tb *TB, in *Inst) []uint64 {
	var out []uint64
	for _, id := range tb.LinesOf(in) {
		out = append(out, uint64(id)*config.LineSize)
	}
	return out
}

// memTB returns a one-warp block holding a single memory instruction of the
// given lanes whose arena is lines, at offset 0.
func memTB(kind OpKind, lanes int, lines ...uint32) *TB {
	return &TB{Threads: 32, Lines: lines, Warps: [][]Inst{{{Kind: kind, ActiveLanes: uint8(lanes), NLines: uint8(len(lines))}}}}
}

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpCompute: "compute",
		OpLoad:    "load",
		OpStore:   "store",
		OpBarrier: "barrier",
		OpLaunch:  "launch",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("OpKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := OpKind(99).String(); got != "OpKind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestNewTBWarpCount(t *testing.T) {
	cases := []struct{ threads, warps int }{
		{1, 1}, {32, 1}, {33, 2}, {64, 2}, {65, 3}, {256, 8}, {100, 4},
	}
	for _, c := range cases {
		tb := NewTB(c.threads).Build()
		if tb.NumWarps() != c.warps {
			t.Errorf("NewTB(%d): %d warps, want %d", c.threads, tb.NumWarps(), c.warps)
		}
	}
}

func TestNewTBPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTB(0) did not panic")
		}
	}()
	NewTB(0)
}

func TestPartialWarpActiveLanes(t *testing.T) {
	tb := NewTB(40).Compute(4).Build() // 32 + 8
	if got := tb.Warps[0][0].ActiveLanes; got != 32 {
		t.Errorf("warp 0 lanes = %d, want 32", got)
	}
	if got := tb.Warps[1][0].ActiveLanes; got != 8 {
		t.Errorf("warp 1 lanes = %d, want 8", got)
	}
	if got := tb.InstCount(); got != 40 {
		t.Errorf("InstCount = %d, want 40", got)
	}
}

func TestLoadAddressesPerThread(t *testing.T) {
	tb := NewTB(64).Load(func(tid int) uint64 { return uint64(tid) * 8 }).Build()
	for w := 0; w < 2; w++ {
		in := &tb.Warps[w][0]
		if in.Kind != OpLoad {
			t.Fatalf("warp %d inst kind = %v", w, in.Kind)
		}
		// Lanes read 8-byte words tid*8: each warp covers two lines.
		base := uint64(w*config.WarpSize) * 8
		if want, got := []uint64{base, base + config.LineSize}, lineAddrs(tb, in); in.ActiveLanes != config.WarpSize || !reflect.DeepEqual(got, want) {
			t.Errorf("warp %d: %d lanes, lines %v, want %d lanes, lines %v", w, in.ActiveLanes, got, config.WarpSize, want)
		}
	}
}

func TestLoadSeqIsCoalesced(t *testing.T) {
	tb := NewTB(128).LoadSeq(0, 2).Build()
	// Each warp instruction should coalesce to exactly one 128-byte line.
	for w, warp := range tb.Warps {
		for i, in := range warp {
			if in.NLines != 1 {
				t.Errorf("warp %d inst %d coalesces to %d lines, want 1", w, i, in.NLines)
			}
		}
	}
	// The two words per thread should cover distinct lines overall.
	if fp := tb.Footprint(); len(fp) != 8 {
		t.Errorf("footprint = %d blocks, want 8 (128 threads * 2 words * 4B / 128B)", len(fp))
	}
}

func TestLoadGatherValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LoadGather with wrong length did not panic")
		}
	}()
	NewTB(32).LoadGather(make([]uint64, 5))
}

func TestLaunchGoesToOwningWarp(t *testing.T) {
	child := NewKernel("child").Add(NewTB(32).Compute(1).Build()).Build()
	tb := NewTB(96).Launch(70, child).Build() // tid 70 is in warp 2
	if n := len(tb.Warps[2]); n != 1 {
		t.Fatalf("warp 2 has %d insts, want 1", n)
	}
	if tb.Warps[2][0].Kind != OpLaunch {
		t.Fatalf("warp 2 inst kind = %v, want launch", tb.Warps[2][0].Kind)
	}
	if len(tb.Warps[0]) != 0 || len(tb.Warps[1]) != 0 {
		t.Error("launch leaked into other warps")
	}
	if len(tb.Launches) != 1 || tb.Launches[0] != child {
		t.Error("Launches list not recorded")
	}
}

func TestLaunchPanics(t *testing.T) {
	child := NewKernel("c").Add(NewTB(32).Compute(1).Build()).Build()
	for _, f := range []func(){
		func() { NewTB(32).Launch(40, child) },
		func() { NewTB(32).Launch(-1, child) },
		func() { NewTB(32).Launch(0, nil) },
		func() { NewTB(32).Launch(0, NewKernel("empty").Build()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestKernelValidate(t *testing.T) {
	good := NewKernel("good").Add(
		NewTB(64).Compute(2).LoadSeq(0, 1).Barrier().Build(),
	).Build()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}

	// Hand-build broken kernels.
	broken := []*Kernel{
		{Name: "zero-threads", TBs: []*TB{{Threads: 0, Warps: nil}}},
		{Name: "warp-mismatch", TBs: []*TB{{Threads: 64, Warps: make([][]Inst, 1)}}},
		{Name: "bad-lanes", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpCompute, Arg: 1, ActiveLanes: 33}}}}}},
		{Name: "zero-lanes", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpCompute, Arg: 1}}}}}},
		{Name: "bad-latency", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpCompute, Arg: 0, ActiveLanes: 32}}}}}},
		{Name: "no-lines", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpLoad, ActiveLanes: 32}}}}}},
		{Name: "line-lane-mismatch", TBs: []*TB{memTB(OpLoad, 2, 0, 1, 2, 3)}},
		{Name: "bad-launch-index", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpLaunch, ActiveLanes: 1, Arg: 0}}}}}},
	}
	for _, k := range broken {
		if err := k.Validate(); err == nil {
			t.Errorf("kernel %q: Validate accepted broken program", k.Name)
		}
	}
}

func TestValidateRecursesIntoChildren(t *testing.T) {
	badChild := &Kernel{Name: "bad", TBs: []*TB{{Threads: 0}}}
	parentTB := NewTB(32).Build()
	parentTB.Launches = append(parentTB.Launches, badChild)
	parentTB.Warps[0] = append(parentTB.Warps[0], Inst{Kind: OpLaunch, ActiveLanes: 1, Arg: 0})
	parent := NewKernel("p").Add(parentTB).Build()
	if err := parent.Validate(); err == nil {
		t.Fatal("Validate did not recurse into launched child")
	}
}

// TestValidateRemembersSuccessOnly: a failure is reported on every call,
// while after a success Validate returns nil without walking the program —
// shown by a (contract-breaking) later corruption going unnoticed — and
// without allocating.
func TestValidateRemembersSuccessOnly(t *testing.T) {
	bad := &Kernel{Name: "bad", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpCompute, Arg: 0, ActiveLanes: 32}}}}}}
	for i := 0; i < 3; i++ {
		if err := bad.Validate(); err == nil {
			t.Fatalf("call %d: invalid kernel accepted", i+1)
		}
	}
	// Repairing the program is seen: failures were never remembered.
	bad.TBs[0].Warps[0][0].Arg = 1
	if err := bad.Validate(); err != nil {
		t.Fatalf("repaired kernel rejected: %v", err)
	}

	child := NewKernel("child").Add(NewTB(32).LoadSeq(0, 1).Build()).Build()
	good := NewKernel("good").Add(NewTB(64).Compute(2).Launch(0, child).Barrier().Build()).Build()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = good.Validate() }); allocs != 0 {
		t.Errorf("second Validate: %.1f allocs, want 0", allocs)
	}
	child.TBs[0].Warps[0][0].ActiveLanes = 0
	if err := good.Validate(); err != nil {
		t.Errorf("validated kernel walked again: %v", err)
	}
	if err := child.Validate(); err != nil {
		t.Errorf("child validated through its parent walked again: %v", err)
	}
}

// TestValidateConcurrent validates one shared program (a parent and the
// child every one of its blocks launches) from many goroutines at once, as
// concurrent simulations of a memoized workload do; run it under -race.
func TestValidateConcurrent(t *testing.T) {
	child := NewKernel("child").Add(NewTB(32).LoadSeq(0, 1).Build()).Build()
	kb := NewKernel("parent")
	for i := 0; i < 16; i++ {
		kb.Add(NewTB(64).Compute(1).Launch(0, child).Build())
	}
	k := kb.Build()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4 && errs[g] == nil; i++ {
				errs[g] = k.Validate()
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

func TestWalkVisitsAllGrids(t *testing.T) {
	leaf := NewKernel("leaf").Add(NewTB(32).Compute(1).Build()).Build()
	mid := NewKernel("mid").Add(NewTB(32).Launch(0, leaf).Build()).Build()
	root := NewKernel("root").Add(
		NewTB(32).Launch(0, mid).Build(),
		NewTB(32).Compute(1).Build(),
	).Build()

	var names []string
	var parents []string
	root.Walk(func(p, c *Kernel) {
		names = append(names, c.Name)
		if p == nil {
			parents = append(parents, "<nil>")
		} else {
			parents = append(parents, p.Name)
		}
	})
	if !reflect.DeepEqual(names, []string{"root", "mid", "leaf"}) {
		t.Errorf("Walk order = %v", names)
	}
	if !reflect.DeepEqual(parents, []string{"<nil>", "root", "mid"}) {
		t.Errorf("Walk parents = %v", parents)
	}
}

func TestInstCounts(t *testing.T) {
	leaf := NewKernel("leaf").Add(NewTB(32).ComputeN(1, 3).Build()).Build() // 96
	root := NewKernel("root").Add(NewTB(64).Compute(1).Launch(0, leaf).Build()).Build()
	if got := root.InstCount(); got != 65 { // 64 compute lanes + 1 launch lane
		t.Errorf("InstCount = %d, want 65", got)
	}
	if got := root.TotalInstCount(); got != 65+96 {
		t.Errorf("TotalInstCount = %d, want %d", got, 65+96)
	}
}

func TestCoalesceOrderAndDedup(t *testing.T) {
	addrs := []uint64{0, 4, 128, 12, 256, 130}
	got := Coalesce(addrs)
	want := []uint64{0, 128, 256}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Coalesce = %v, want %v", got, want)
	}
}

// Property: coalescing never produces more transactions than addresses, every
// address is covered by a produced line, and lines are unique.
func TestCoalesceProperties(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		addrs := make([]uint64, len(raw))
		for i, r := range raw {
			addrs[i] = uint64(r)
		}
		lines := Coalesce(addrs)
		if len(lines) > len(addrs) {
			return false
		}
		set := make(map[uint64]bool)
		for _, l := range lines {
			if l%config.LineSize != 0 {
				return false
			}
			if set[l] {
				return false // duplicate transaction
			}
			set[l] = true
		}
		for _, a := range addrs {
			if !set[a/config.LineSize*config.LineSize] {
				return false // uncovered address
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: a random structured program built through the builder always
// validates, and its footprint block count is bounded by its distinct
// memory addresses.
func TestBuilderProgramsAlwaysValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		threads := 1 + rng.Intn(256)
		b := NewTB(threads)
		nops := 1 + rng.Intn(20)
		for i := 0; i < nops; i++ {
			switch rng.Intn(4) {
			case 0:
				b.Compute(1 + rng.Intn(16))
			case 1:
				base := uint64(rng.Intn(1 << 20))
				b.Load(func(tid int) uint64 { return base + uint64(tid)*4 })
			case 2:
				base := uint64(rng.Intn(1 << 20))
				b.Store(func(tid int) uint64 { return base + uint64(tid)*8 })
			case 3:
				b.Barrier()
			}
		}
		k := NewKernel("fuzz").Add(b.Build()).Build()
		if err := k.Validate(); err != nil {
			t.Fatalf("trial %d: builder produced invalid program: %v", trial, err)
		}
	}
}

func TestResources(t *testing.T) {
	tb := NewTB(128).Resources(32, 4096).Build()
	if tb.Registers() != 32*128 {
		t.Errorf("Registers = %d, want %d", tb.Registers(), 32*128)
	}
	if tb.SharedMemBytes != 4096 {
		t.Errorf("SharedMemBytes = %d, want 4096", tb.SharedMemBytes)
	}
}

func TestFootprintEmptyForComputeOnly(t *testing.T) {
	tb := NewTB(32).ComputeN(1, 5).Barrier().Build()
	if fp := tb.Footprint(); len(fp) != 0 {
		t.Errorf("compute-only footprint = %v, want empty", fp)
	}
}

func TestFootprintSortedUnique(t *testing.T) {
	tb := NewTB(32).
		Load(func(tid int) uint64 { return uint64(tid%4) * 128 }).
		Load(func(tid int) uint64 { return 512 }).
		Build()
	fp := tb.Footprint()
	want := []uint64{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(fp, want) {
		t.Errorf("Footprint = %v, want %v", fp, want)
	}
}

func TestLoadMaskedLaneCompaction(t *testing.T) {
	addrs := make([]uint64, 64)
	active := make([]bool, 64)
	// Activate threads 3, 40, 41 only.
	for _, tid := range []int{3, 40, 41} {
		addrs[tid] = uint64(tid) * 256
		active[tid] = true
	}
	tb := NewTB(64).LoadMasked(addrs, active).Build()
	// Warp 0 carries one active lane, warp 1 two.
	if n := len(tb.Warps[0]); n != 1 {
		t.Fatalf("warp 0 insts = %d", n)
	}
	if got := &tb.Warps[0][0]; got.ActiveLanes != 1 || !reflect.DeepEqual(lineAddrs(tb, got), []uint64{3 * 256}) {
		t.Errorf("warp 0 inst = %+v, lines %v", *got, lineAddrs(tb, got))
	}
	if got := &tb.Warps[1][0]; got.ActiveLanes != 2 || !reflect.DeepEqual(lineAddrs(tb, got), []uint64{40 * 256, 41 * 256}) {
		t.Errorf("warp 1 inst = %+v, lines %v", *got, lineAddrs(tb, got))
	}
}

func TestLoadMaskedSkipsFullyInactiveWarps(t *testing.T) {
	addrs := make([]uint64, 64)
	active := make([]bool, 64)
	active[0] = true // only warp 0 active
	tb := NewTB(64).LoadMasked(addrs, active).Build()
	if len(tb.Warps[1]) != 0 {
		t.Error("fully inactive warp received an instruction")
	}
	if err := NewKernel("k").Add(tb).Build().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMaskedKind(t *testing.T) {
	addrs := make([]uint64, 32)
	active := make([]bool, 32)
	active[5] = true
	tb := NewTB(32).StoreMasked(addrs, active).Build()
	if tb.Warps[0][0].Kind != OpStore {
		t.Errorf("kind = %v", tb.Warps[0][0].Kind)
	}
}

func TestMaskedLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched mask length")
		}
	}()
	NewTB(32).LoadMasked(make([]uint64, 32), make([]bool, 8))
}

func TestStoreSeqAddressing(t *testing.T) {
	tb := NewTB(64).StoreSeq(1024, 2).Build()
	if len(tb.Warps[0]) != 2 {
		t.Fatalf("insts = %d", len(tb.Warps[0]))
	}
	// Word 1 starts after 64 threads * 4 bytes.
	if got := lineAddrs(tb, &tb.Warps[0][1])[0]; got != 1024+256 {
		t.Errorf("second word base = %d, want %d", got, 1024+256)
	}
	if tb.Warps[0][0].Kind != OpStore {
		t.Error("StoreSeq produced non-store")
	}
}

// TestValidateRejectsMalformedLines: a memory op's lines must be what the
// coalescer could have produced for its lanes — at least one and at most
// ActiveLanes distinct line IDs, inside the arena. (A line ID cannot be
// unaligned.)
func TestValidateRejectsMalformedLines(t *testing.T) {
	memOp := func(lanes int, lines ...uint32) *Kernel {
		return &Kernel{Name: "k", TBs: []*TB{memTB(OpStore, lanes, lines...)}}
	}
	if err := memOp(32, 0, 3).Validate(); err != nil {
		t.Errorf("two lines for 32 lanes rejected: %v", err)
	}
	outside := memOp(32, 0, 1)
	outside.TBs[0].Warps[0][0].Arg = 1 // lines [1, 3) of a 2-line arena
	for name, k := range map[string]*Kernel{
		"no lines":              memOp(32),
		"more lines than lanes": memOp(1, 0, 1),
		"duplicate line":        memOp(32, 1, 0, 1),
		"lines outside arena":   outside,
	} {
		var ie *InstError
		if err := k.Validate(); !errors.As(err, &ie) || ie.Kernel != "k" || ie.TB != 0 || ie.Warp != 0 || ie.Inst != 0 {
			t.Errorf("%s: Validate = %v, want an *InstError at kernel k TB 0 warp 0 inst 0", name, err)
		}
	}
}

// TestValidateReportsBuildOverflows: an operand a builder cannot encode —
// a lane address whose line ID needs more than 32 bits, a compute latency,
// launch index or arena offset outside Arg's range — is never wrapped: the
// builder records the first one on the block, and Validate reports it as an
// *InstError naming the kernel, TB, warp and instruction.
func TestValidateReportsBuildOverflows(t *testing.T) {
	const tooBig = math.MaxUint32 + 1
	farLane := func(tid int) uint64 {
		if tid == 40 {
			return tooBig * config.LineSize
		}
		return uint64(tid) * 4
	}
	cases := []struct {
		name       string
		tb         func() *TB
		warp, inst int
	}{
		{"line ID", func() *TB { return NewTB(64).Compute(1).Load(farLane).Build() }, 1, 1},
		{"masked line ID", func() *TB {
			addrs, active := make([]uint64, 64), make([]bool, 64)
			for tid := range addrs {
				addrs[tid], active[tid] = farLane(tid), tid >= 40
			}
			return NewTB(64).Compute(1).StoreMasked(addrs, active).Build()
		}, 1, 1},
		{"compute latency", func() *TB { return NewTB(64).Barrier().Compute(tooBig).Build() }, 0, 1},
		{"negative compute latency", func() *TB { return NewTB(64).Compute(-1).Build() }, 0, 0},
		// The 2^32nd launch and a 16 GiB arena are out of a test's reach:
		// hand push, the one encoder of every operand, the operands those
		// would carry.
		{"launch index", func() *TB {
			b := NewTB(64).Compute(1)
			b.push(1, OpLaunch, 1, 0, tooBig)
			return b.Build()
		}, 1, 1},
		{"arena offset", func() *TB {
			b := NewTB(64).Compute(1).Compute(1)
			b.push(0, OpLoad, 32, 0, tooBig)
			return b.Build()
		}, 0, 2},
		{"first error kept", func() *TB { return NewTB(64).Compute(-1).Load(farLane).Compute(tooBig).Build() }, 0, 0},
	}
	for _, c := range cases {
		good := NewTB(32).Compute(1).Build()
		k := NewKernel("big").Add(good, c.tb()).Build()
		var ie *InstError
		err := k.Validate()
		if !errors.As(err, &ie) {
			t.Errorf("%s: Validate = %v, want an *InstError", c.name, err)
			continue
		}
		if ie.Kernel != "big" || ie.TB != 1 || ie.Warp != c.warp || ie.Inst != c.inst {
			t.Errorf("%s: error at kernel %q TB %d warp %d inst %d, want kernel big TB 1 warp %d inst %d (%v)",
				c.name, ie.Kernel, ie.TB, ie.Warp, ie.Inst, c.warp, c.inst, err)
		}
		if err := k.Validate(); err == nil {
			t.Errorf("%s: second Validate accepted", c.name)
		}
	}
}

// TestInstEncodingPins: an Inst is a small fixed-size record with no
// pointers, so instruction streams are flat arrays the GC never scans.
func TestInstEncodingPins(t *testing.T) {
	if size := unsafe.Sizeof(Inst{}); size > 16 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want <= 16", size)
	}
	var hasPointers func(reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return typ.Len() > 0 && hasPointers(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true // pointers, slices, maps, strings, interfaces, funcs, chans
	}
	if hasPointers(reflect.TypeOf(Inst{})) {
		t.Error("isa.Inst holds a pointer")
	}
}

// TestTBBuilderLoadAllocPins: a Load appends one Inst per warp and its
// lines to the block's arena, and allocates nothing else — no slice per
// instruction. From empty, its allocations are the amortised growth of the
// four warp streams and the arena, O(log n) each (a per-instruction slice
// would be 4 per Load); with capacity in hand it allocates nothing at all.
func TestTBBuilderLoadAllocPins(t *testing.T) {
	const loads = 1000
	var b *TBBuilder
	var base uint64
	load := func() {
		b.Load(func(tid int) uint64 { return base + uint64(tid)*8 }) // 2 lines a warp
		base += 4096
	}
	build := func() {
		b = NewTB(128) // 4 warps
		for i := 0; i < loads; i++ {
			load()
		}
	}
	if allocs := testing.AllocsPerRun(1, build); allocs > 100 {
		t.Errorf("%d loads from empty: %.0f allocs, want amortised growth (<= 100; one per instruction is %d)",
			loads, allocs, 4*loads)
	}
	for w := range b.tb.Warps {
		b.tb.Warps[w] = b.tb.Warps[w][:0]
	}
	b.tb.Lines = b.tb.Lines[:0]
	if allocs := testing.AllocsPerRun(loads-1, load); allocs != 0 {
		t.Errorf("Load within capacity: %.1f allocs, want 0", allocs)
	}
	if n, lines := len(b.tb.Warps[0]), len(b.tb.Lines); n != loads || lines != 8*loads {
		t.Fatalf("warp 0 holds %d loads and the arena %d lines, want %d and %d", n, lines, loads, 8*loads)
	}
}

// TestBuildersStoreCoalescedLines: every addressed builder stores, per warp
// instruction, exactly Coalesce of its active lanes' addresses and counts
// those lanes as ActiveLanes.
func TestBuildersStoreCoalescedLines(t *testing.T) {
	const threads = 70 // two full warps and a partial one
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint64, threads)
	active := make([]bool, threads)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(8 * config.LineSize))
		active[i] = rng.Intn(3) > 0
	}
	active[64], active[65] = false, true // the partial warp keeps one lane
	perThread := func(tid int) uint64 { return addrs[tid] }
	// want returns warp w's expected (lines, lanes) given per-thread
	// addresses and a lane filter.
	want := func(w int, addr func(tid int) uint64, on func(tid int) bool) ([]uint64, int) {
		var lanes []uint64
		for tid := w * config.WarpSize; tid < min((w+1)*config.WarpSize, threads); tid++ {
			if on(tid) {
				lanes = append(lanes, addr(tid))
			}
		}
		return Coalesce(lanes), len(lanes)
	}
	all := func(int) bool { return true }
	seqAddr := func(word int) func(tid int) uint64 {
		return func(tid int) uint64 { return 4096 + uint64(word*threads+tid)*4 }
	}
	cases := []struct {
		name string
		tb   *TB
		inst int
		addr func(tid int) uint64
		on   func(tid int) bool
	}{
		{"Load", NewTB(threads).Load(perThread).Build(), 0, perThread, all},
		{"LoadGather", NewTB(threads).LoadGather(addrs).Build(), 0, perThread, all},
		{"LoadSeq/word0", NewTB(threads).LoadSeq(4096, 2).Build(), 0, seqAddr(0), all},
		{"LoadSeq/word1", NewTB(threads).LoadSeq(4096, 2).Build(), 1, seqAddr(1), all},
		{"LoadMasked", NewTB(threads).LoadMasked(addrs, active).Build(), 0, perThread, func(tid int) bool { return active[tid] }},
	}
	for _, c := range cases {
		for w, warp := range c.tb.Warps {
			lines, lanes := want(w, c.addr, c.on)
			in := &warp[c.inst]
			got := lineAddrs(c.tb, in)
			if in.Kind != OpLoad || int(in.ActiveLanes) != lanes || !reflect.DeepEqual(got, lines) {
				t.Errorf("%s warp %d: %v, %d lanes, lines %v; want load, %d lanes, lines %v",
					c.name, w, in.Kind, in.ActiveLanes, got, lanes, lines)
			}
		}
	}
}
