package isa

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"laperm/internal/config"
)

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
		in := tb.Warps[w][0]
		if in.Kind != OpLoad {
			t.Fatalf("warp %d inst kind = %v", w, in.Kind)
		}
		// Lanes read 8-byte words tid*8: each warp covers two lines.
		base := uint64(w*config.WarpSize) * 8
		if want := []uint64{base, base + config.LineSize}; in.ActiveLanes != config.WarpSize || !reflect.DeepEqual(in.Lines, want) {
			t.Errorf("warp %d: %d lanes, lines %v, want %d lanes, lines %v", w, in.ActiveLanes, in.Lines, config.WarpSize, want)
		}
	}
}

func TestLoadSeqIsCoalesced(t *testing.T) {
	tb := NewTB(128).LoadSeq(0, 2).Build()
	// Each warp instruction should coalesce to exactly one 128-byte line.
	for w, warp := range tb.Warps {
		for i, in := range warp {
			if len(in.Lines) != 1 {
				t.Errorf("warp %d inst %d coalesces to %d lines, want 1", w, i, len(in.Lines))
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
		{Name: "bad-lanes", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpCompute, Latency: 1, ActiveLanes: 33}}}}}},
		{Name: "bad-latency", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpCompute, Latency: 0, ActiveLanes: 32}}}}}},
		{Name: "no-lines", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpLoad, ActiveLanes: 32}}}}}},
		{Name: "line-lane-mismatch", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpLoad, Lines: []uint64{0, 128, 256, 384}, ActiveLanes: 2}}}}}},
		{Name: "bad-launch-index", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpLaunch, ActiveLanes: 1, Launch: 0}}}}}},
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
	parentTB.Warps[0] = append(parentTB.Warps[0], Inst{Kind: OpLaunch, ActiveLanes: 1, Launch: 0})
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
	bad := &Kernel{Name: "bad", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpCompute, Latency: 0, ActiveLanes: 32}}}}}}
	for i := 0; i < 3; i++ {
		if err := bad.Validate(); err == nil {
			t.Fatalf("call %d: invalid kernel accepted", i+1)
		}
	}
	// Repairing the program is seen: failures were never remembered.
	bad.TBs[0].Warps[0][0].Latency = 1
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
	if got := tb.Warps[0][0]; got.ActiveLanes != 1 || !reflect.DeepEqual(got.Lines, []uint64{3 * 256}) {
		t.Errorf("warp 0 inst = %+v", got)
	}
	if got := tb.Warps[1][0]; got.ActiveLanes != 2 || !reflect.DeepEqual(got.Lines, []uint64{40 * 256, 41 * 256}) {
		t.Errorf("warp 1 inst = %+v", got)
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
	if got := tb.Warps[0][1].Lines[0]; got != 1024+256 {
		t.Errorf("second word base = %d, want %d", got, 1024+256)
	}
	if tb.Warps[0][0].Kind != OpStore {
		t.Error("StoreSeq produced non-store")
	}
}

// TestValidateRejectsMalformedLines: a memory op's Lines must be what
// Coalesce could have produced for its lanes — at least one and at most
// ActiveLanes distinct, line-aligned addresses.
func TestValidateRejectsMalformedLines(t *testing.T) {
	memOp := func(lanes int, lines ...uint64) *Kernel {
		return &Kernel{Name: "k", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpStore, Lines: lines, ActiveLanes: lanes}}}}}}
	}
	if err := memOp(32, 0, 3*config.LineSize).Validate(); err != nil {
		t.Errorf("two lines for 32 lanes rejected: %v", err)
	}
	for name, k := range map[string]*Kernel{
		"no lines":              memOp(32),
		"more lines than lanes": memOp(1, 0, config.LineSize),
		"unaligned line":        memOp(32, 0, config.LineSize+4),
		"duplicate line":        memOp(32, config.LineSize, 0, config.LineSize),
	} {
		if err := k.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
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
			in := warp[c.inst]
			if in.Kind != OpLoad || in.ActiveLanes != lanes || !reflect.DeepEqual(in.Lines, lines) {
				t.Errorf("%s warp %d: %v, %d lanes, lines %v; want load, %d lanes, lines %v",
					c.name, w, in.Kind, in.ActiveLanes, in.Lines, lanes, lines)
			}
		}
	}
}
