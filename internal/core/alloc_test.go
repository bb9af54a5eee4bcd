package core

// Allocation pins for the schedulers' per-Select paths: once a queue has
// reached its peak length, queueing, dispatching and dropping instances
// allocate nothing, and neither does the residency cap's dispatcher view.

import (
	"testing"

	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// TestFifoZeroAlloc: a queue kept about depth instances long — each step
// pushes one instance and dispatches the oldest, which trim then drops —
// reuses its backing array, so a batch of steady steps allocates nothing.
// A queue that dropped instances by reslicing from the front would lose
// capacity on every drop and reallocate every depth pushes.
func TestFifoZeroAlloc(t *testing.T) {
	const depth = 100
	ring := make([]*gpu.KernelInstance, 3*depth) // re-pushed only once trimmed
	for i := range ring {
		ring[i] = ki(i, 0, -1, nil, 1)
	}
	var f fifo
	next := 0
	step := func() {
		k := ring[next%len(ring)]
		next++
		k.NextTB = 0
		f.push(k)
		if next > depth {
			f.scan(func(k *gpu.KernelInstance) bool { k.NextTB++; return true })
		}
	}
	for i := 0; i < 4*len(ring); i++ { // reach the peak length
		step()
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 1000; i++ {
			step()
		}
	})
	if allocs != 0 {
		t.Errorf("%.0f allocations per 1000 steady queue steps, want 0", allocs)
	}
	live := 0
	for _, k := range f.items {
		if k != nil && !k.Exhausted() {
			live++
		}
	}
	if live != depth {
		t.Errorf("queue holds %d live instances, want %d", live, depth)
	}
}

// TestThrottledSelectZeroAlloc: a Select through the residency cap hands
// the inner policy a dispatcher view without allocating one.
func TestThrottledSelectZeroAlloc(t *testing.T) {
	th := NewThrottled(NewRoundRobin(), 1)
	th.Enqueue(ki(0, 0, -1, nil, 4))
	full := &fakeDispatcher{numSMX: 4, fit: func(int, *isa.TB) bool { return false }}
	if k, _ := th.Select(full); k != nil {
		t.Fatal("selected an instance no SMX has room for")
	}
	if allocs := testing.AllocsPerRun(100, func() { th.Select(full) }); allocs != 0 {
		t.Errorf("%.0f allocations per Select, want 0", allocs)
	}
}
