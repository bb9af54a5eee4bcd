package core

import (
	"testing"

	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// fakeDispatcher implements gpu.Dispatcher with a programmable fit
// predicate.
type fakeDispatcher struct {
	numSMX int
	fit    func(smx int, tb *isa.TB) bool
	cycle  uint64
}

func (f *fakeDispatcher) NumSMX() int { return f.numSMX }
func (f *fakeDispatcher) CanFit(smx int, tb *isa.TB) bool {
	if f.fit == nil {
		return true
	}
	return f.fit(smx, tb)
}
func (f *fakeDispatcher) Cycle() uint64 { return f.cycle }

func (f *fakeDispatcher) ResidentTBs(smx int) int { return 0 }

// ki builds a kernel instance with n one-warp TBs.
func ki(id, priority, boundSMX int, parent *gpu.KernelInstance, n int) *gpu.KernelInstance {
	kb := isa.NewKernel("k")
	for i := 0; i < n; i++ {
		kb.Add(isa.NewTB(32).Compute(1).Build())
	}
	return &gpu.KernelInstance{ID: id, Prog: kb.Build(), Priority: priority, BoundSMX: boundSMX, Parent: parent}
}

// drain repeatedly Selects until nil, advancing NextTB as the engine would,
// and returns the (kernelID, smx) sequence.
func drain(t *testing.T, s gpu.TBScheduler, d *fakeDispatcher, max int) [][2]int {
	t.Helper()
	var seq [][2]int
	for i := 0; i < max; i++ {
		k, smx := s.Select(d)
		if k == nil {
			break
		}
		if k.Exhausted() {
			t.Fatal("scheduler returned exhausted kernel")
		}
		if !d.CanFit(smx, k.PeekTB()) {
			t.Fatal("scheduler returned non-fitting placement")
		}
		k.NextTB++
		seq = append(seq, [2]int{k.ID, smx})
	}
	return seq
}

func TestRoundRobinFCFSAndSMXRotation(t *testing.T) {
	rr := NewRoundRobin()
	d := &fakeDispatcher{numSMX: 4}
	a := ki(0, 0, -1, nil, 3)
	b := ki(1, 0, -1, nil, 2)
	rr.Enqueue(a)
	rr.Enqueue(b)
	seq := drain(t, rr, d, 10)
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 3}, {1, 0}}
	if len(seq) != len(want) {
		t.Fatalf("seq = %v", seq)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Errorf("step %d = %v, want %v", i, seq[i], want[i])
		}
	}
}

func TestRoundRobinSkipsFullSMXs(t *testing.T) {
	rr := NewRoundRobin()
	d := &fakeDispatcher{numSMX: 4, fit: func(smx int, tb *isa.TB) bool { return smx == 2 }}
	rr.Enqueue(ki(0, 0, -1, nil, 2))
	seq := drain(t, rr, d, 10)
	if len(seq) != 2 || seq[0][1] != 2 || seq[1][1] != 2 {
		t.Errorf("seq = %v, want both on SMX 2", seq)
	}
}

func TestRoundRobinReturnsNilWhenNothingFits(t *testing.T) {
	rr := NewRoundRobin()
	d := &fakeDispatcher{numSMX: 2, fit: func(int, *isa.TB) bool { return false }}
	rr.Enqueue(ki(0, 0, -1, nil, 1))
	if k, _ := rr.Select(d); k != nil {
		t.Error("expected nil when nothing fits")
	}
}

func TestRoundRobinConcurrentKernels(t *testing.T) {
	// First kernel's TBs need a big SMX; only SMX 1 fits them. The second
	// kernel's TBs fit anywhere and must fill the idle SMXs (concurrent
	// kernel execution, Section II-B).
	big := isa.NewKernel("big").Add(isa.NewTB(256).Compute(1).Build()).Build()
	a := &gpu.KernelInstance{ID: 0, Prog: big}
	b := ki(1, 0, -1, nil, 2)
	rr := NewRoundRobin()
	rr.Enqueue(a)
	rr.Enqueue(b)
	d := &fakeDispatcher{numSMX: 2, fit: func(smx int, tb *isa.TB) bool {
		return tb.Threads <= 32 // big TB fits nowhere
	}}
	seq := drain(t, rr, d, 10)
	if len(seq) != 2 || seq[0][0] != 1 {
		t.Errorf("seq = %v, want kernel 1 to fill in", seq)
	}
}

func TestTBPriPrefersHigherPriority(t *testing.T) {
	tp := NewTBPri(4)
	d := &fakeDispatcher{numSMX: 2}
	parent := ki(0, 0, -1, nil, 2)
	child := ki(1, 1, 0, parent, 2)
	tp.Enqueue(parent)
	tp.Enqueue(child)
	seq := drain(t, tp, d, 10)
	wantIDs := []int{1, 1, 0, 0}
	for i, w := range wantIDs {
		if seq[i][0] != w {
			t.Errorf("step %d kernel = %d, want %d (priority order)", i, seq[i][0], w)
		}
	}
}

func TestTBPriFCFSWithinLevel(t *testing.T) {
	tp := NewTBPri(4)
	d := &fakeDispatcher{numSMX: 2}
	a := ki(0, 2, 0, ki(9, 1, 0, nil, 1), 1)
	b := ki(1, 2, 0, ki(9, 1, 0, nil, 1), 1)
	tp.Enqueue(a)
	tp.Enqueue(b)
	seq := drain(t, tp, d, 10)
	if seq[0][0] != 0 || seq[1][0] != 1 {
		t.Errorf("seq = %v, want FCFS within level", seq)
	}
}

func TestTBPriFallsThroughWhenHighPrioDoesNotFit(t *testing.T) {
	tp := NewTBPri(4)
	// High-priority kernel has 256-thread TBs that fit nowhere; the
	// low-priority small TB must still dispatch.
	bigProg := isa.NewKernel("big").Add(isa.NewTB(256).Compute(1).Build()).Build()
	high := &gpu.KernelInstance{ID: 0, Prog: bigProg, Priority: 3}
	low := ki(1, 0, -1, nil, 1)
	tp.Enqueue(high)
	tp.Enqueue(low)
	d := &fakeDispatcher{numSMX: 2, fit: func(smx int, tb *isa.TB) bool { return tb.Threads <= 32 }}
	seq := drain(t, tp, d, 5)
	if len(seq) != 1 || seq[0][0] != 1 {
		t.Errorf("seq = %v, want low-priority fill-in", seq)
	}
}

func TestTBPriClampsPriority(t *testing.T) {
	tp := NewTBPri(2)
	over := ki(0, 7, 0, ki(9, 2, 0, nil, 1), 1) // priority beyond L
	negative := ki(1, -3, 0, nil, 1)            // malformed
	tp.Enqueue(over)
	tp.Enqueue(negative)
	d := &fakeDispatcher{numSMX: 1}
	seq := drain(t, tp, d, 5)
	if len(seq) != 2 {
		t.Fatalf("seq = %v", seq)
	}
	if seq[0][0] != 0 {
		t.Error("clamped high priority should still beat priority 0")
	}
}

func TestSMXBindDispatchesToBoundSMX(t *testing.T) {
	sb := NewSMXBind(4, 4)
	parent := ki(0, 0, -1, nil, 1)
	child := ki(1, 1, 2, parent, 3)
	sb.Enqueue(child)
	d := &fakeDispatcher{numSMX: 4}
	// Drain over several slots; the cursor visits SMXs round-robin, and
	// only SMX 2 may receive the child's TBs.
	var got [][2]int
	for i := 0; i < 12 && len(got) < 3; i++ {
		k, smx := sb.Select(d)
		if k == nil {
			continue
		}
		k.NextTB++
		got = append(got, [2]int{k.ID, smx})
	}
	if len(got) != 3 {
		t.Fatalf("dispatched %d TBs, want 3", len(got))
	}
	for _, g := range got {
		if g[1] != 2 {
			t.Errorf("child TB on SMX %d, want bound SMX 2", g[1])
		}
	}
}

func TestSMXBindDoesNotRedirectWhenBoundSMXFull(t *testing.T) {
	sb := NewSMXBind(2, 4)
	child := ki(0, 1, 0, ki(9, 0, -1, nil, 1), 1)
	sb.Enqueue(child)
	d := &fakeDispatcher{numSMX: 2, fit: func(smx int, tb *isa.TB) bool { return smx != 0 }}
	for i := 0; i < 6; i++ {
		if k, _ := sb.Select(d); k != nil {
			t.Fatal("SMX-Bind redirected a bound TB")
		}
	}
}

func TestSMXBindHostKernelsRoundRobin(t *testing.T) {
	sb := NewSMXBind(3, 4)
	host := ki(0, 0, -1, nil, 6)
	sb.Enqueue(host)
	d := &fakeDispatcher{numSMX: 3}
	seq := drain(t, sb, d, 10)
	if len(seq) != 6 {
		t.Fatalf("seq = %v", seq)
	}
	for i, s := range seq {
		if s[1] != i%3 {
			t.Errorf("host TB %d on SMX %d, want %d", i, s[1], i%3)
		}
	}
}

func TestSMXBindPriorityWithinBank(t *testing.T) {
	sb := NewSMXBind(1, 4)
	p1 := ki(0, 1, 0, ki(8, 0, -1, nil, 1), 1)
	p3 := ki(1, 3, 0, ki(9, 2, 0, nil, 1), 1)
	sb.Enqueue(p1)
	sb.Enqueue(p3)
	d := &fakeDispatcher{numSMX: 1}
	seq := drain(t, sb, d, 5)
	if seq[0][0] != 1 || seq[1][0] != 0 {
		t.Errorf("seq = %v, want priority-3 kernel first", seq)
	}
}

func TestAdaptiveBindStealsWhenIdle(t *testing.T) {
	ab := NewAdaptiveBind(2, 4)
	child := ki(0, 1, 0, ki(9, 0, -1, nil, 1), 4) // bound to SMX 0
	ab.Enqueue(child)
	d := &fakeDispatcher{numSMX: 2}
	var onSMX [2]int
	for i := 0; i < 8; i++ {
		k, smx := ab.Select(d)
		if k == nil {
			continue
		}
		k.NextTB++
		onSMX[smx]++
	}
	if onSMX[0]+onSMX[1] != 4 {
		t.Fatalf("dispatched %d TBs, want 4", onSMX[0]+onSMX[1])
	}
	if onSMX[1] == 0 {
		t.Error("Adaptive-Bind never stole to the idle SMX")
	}
	if onSMX[0] == 0 {
		t.Error("bound SMX received nothing")
	}
	if ab.Steals == 0 {
		t.Error("Steals counter not incremented")
	}
}

func TestAdaptiveBindStage1BeatsStealing(t *testing.T) {
	ab := NewAdaptiveBind(2, 4)
	own := ki(0, 1, 1, ki(8, 0, -1, nil, 1), 1)   // bound to SMX 1
	other := ki(1, 1, 0, ki(9, 0, -1, nil, 1), 1) // bound to SMX 0
	ab.Enqueue(own)
	ab.Enqueue(other)
	d := &fakeDispatcher{numSMX: 2}
	// Cursor starts at SMX 0: stage 1 must pick the TB bound to SMX 0,
	// not steal SMX 1's.
	k, smx := ab.Select(d)
	if k == nil || k.ID != 1 || smx != 0 {
		t.Errorf("got kernel %v on SMX %d, want kernel 1 on SMX 0", k, smx)
	}
	k.NextTB++
	// Next slot considers SMX 1 and takes its own TB.
	k, smx = ab.Select(d)
	if k == nil || k.ID != 0 || smx != 1 {
		t.Errorf("got kernel %v on SMX %d, want kernel 0 on SMX 1", k, smx)
	}
}

func TestAdaptiveBindStage2ParentBeforeSteal(t *testing.T) {
	ab := NewAdaptiveBind(2, 4)
	host := ki(0, 0, -1, nil, 1)
	bound := ki(1, 1, 1, ki(9, 0, -1, nil, 1), 1)
	ab.Enqueue(host)
	ab.Enqueue(bound)
	d := &fakeDispatcher{numSMX: 2}
	// SMX 0 has no bound work: stage 2 gives it the host (parent) TB
	// rather than stealing SMX 1's child.
	k, smx := ab.Select(d)
	if k == nil || k.ID != 0 || smx != 0 {
		t.Errorf("got kernel %v on SMX %d, want host kernel on SMX 0", k, smx)
	}
}

func TestAdaptiveBindBackupSticky(t *testing.T) {
	ab := NewAdaptiveBind(3, 4)
	// Two banks with work: SMX 1 and SMX 2. SMX 0 is idle and must pick
	// one backup bank and drain it before touching the other.
	c1 := ki(0, 1, 1, ki(8, 0, -1, nil, 1), 2)
	c2 := ki(1, 1, 2, ki(9, 0, -1, nil, 1), 2)
	ab.Enqueue(c1)
	ab.Enqueue(c2)
	d := &fakeDispatcher{numSMX: 3}

	var stolenBy0 []int // kernel IDs stolen by SMX 0, in order
	for i := 0; i < 30; i++ {
		k, smx := ab.Select(d)
		if k == nil {
			continue
		}
		k.NextTB++
		if smx == 0 {
			stolenBy0 = append(stolenBy0, k.ID)
		}
	}
	if len(stolenBy0) == 0 {
		t.Fatal("SMX 0 never stole")
	}
	// Stickiness: SMX 0's steals must not interleave between banks.
	for i := 1; i < len(stolenBy0); i++ {
		if stolenBy0[i] != stolenBy0[i-1] {
			// A switch is only legal if the previous bank drained;
			// with 2 TBs per bank, one switch at most.
			if i < len(stolenBy0)-1 && stolenBy0[i+1] != stolenBy0[i] {
				t.Errorf("steals interleaved: %v", stolenBy0)
			}
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	names := map[string]gpu.TBScheduler{
		"rr":            NewRoundRobin(),
		"tb-pri":        NewTBPri(4),
		"smx-bind":      NewSMXBind(4, 4),
		"adaptive-bind": NewAdaptiveBind(4, 4),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestFifoDropsExhausted(t *testing.T) {
	var f fifo
	a := ki(0, 0, -1, nil, 1)
	b := ki(1, 0, -1, nil, 1)
	f.push(a)
	f.push(b)
	a.NextTB = 1 // exhausted
	if h := f.head(); h != b {
		t.Errorf("head = %v, want kernel 1", h)
	}
	b.NextTB = 1
	if !f.empty() {
		t.Error("fifo should be empty")
	}
}

func TestSMXBindClustersDispatchAnywhereInCluster(t *testing.T) {
	// 4 SMXs in 2 clusters of 2. Child bound to SMX 1 may run on SMX 0
	// (same cluster) but never on SMXs 2-3.
	sb := NewBindClusters(4, 2, 4, BackupNone)
	child := ki(0, 1, 1, ki(9, 0, -1, nil, 1), 4)
	sb.Enqueue(child)
	d := &fakeDispatcher{numSMX: 4}
	var smxs []int
	for i := 0; i < 16 && len(smxs) < 4; i++ {
		k, smx := sb.Select(d)
		if k == nil {
			continue
		}
		k.NextTB++
		smxs = append(smxs, smx)
	}
	if len(smxs) != 4 {
		t.Fatalf("dispatched %d TBs, want 4", len(smxs))
	}
	sawSMX0 := false
	for _, s := range smxs {
		if s >= 2 {
			t.Errorf("cluster-bound TB escaped to SMX %d", s)
		}
		if s == 0 {
			sawSMX0 = true
		}
	}
	if !sawSMX0 {
		t.Error("cluster binding never used the sibling SMX")
	}
}

func TestAdaptiveBindClustersStealAcrossClusters(t *testing.T) {
	ab := NewBindClusters(4, 2, 4, BackupSticky)
	child := ki(0, 1, 0, ki(9, 0, -1, nil, 1), 6) // bound to cluster 0
	ab.Enqueue(child)
	d := &fakeDispatcher{numSMX: 4}
	var perSMX [4]int
	for i := 0; i < 24; i++ {
		k, smx := ab.Select(d)
		if k == nil {
			continue
		}
		k.NextTB++
		perSMX[smx]++
	}
	total := perSMX[0] + perSMX[1] + perSMX[2] + perSMX[3]
	if total != 6 {
		t.Fatalf("dispatched %d TBs, want 6", total)
	}
	if perSMX[2]+perSMX[3] == 0 {
		t.Error("adaptive clustering never stole into the idle cluster")
	}
}

func TestNewBindQueuesPanicsOnBadCluster(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-dividing cluster size")
		}
	}()
	NewBindClusters(4, 3, 2, BackupNone)
}
