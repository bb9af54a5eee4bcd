package serve

import (
	"errors"
	"testing"

	"laperm/internal/spec"
)

func fqJob(id string, key flowKey) *Job {
	j := newJob(id, spec.RunSpec{})
	j.flow = key
	return j
}

func drainOrder(t *testing.T, q *fairQueue) []string {
	t.Helper()
	var order []string
	for q.Len() > 0 {
		j, ok := q.Pop()
		if !ok {
			t.Fatal("queue reported closed while jobs remained")
		}
		order = append(order, j.ID)
	}
	return order
}

// TestFairQueueTenantRoundRobin: two tenants with unequal backlogs
// alternate dequeue for dequeue until the small one drains.
func TestFairQueueTenantRoundRobin(t *testing.T) {
	q := newFairQueue(16)
	for i := 0; i < 4; i++ {
		q.Push(fqJob(string(rune('a'+i)), flowKey{tenant: "big", sweep: "s1"}), 1)
	}
	q.Push(fqJob("x", flowKey{tenant: "small", sweep: "s2"}), 1)
	q.Push(fqJob("y", flowKey{tenant: "small", sweep: "s2"}), 1)

	order := drainOrder(t, q)
	// Strict tenant RR: big, small, big, small, then big drains alone.
	want := []string{"a", "x", "b", "y", "c", "d"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order = %v, want %v", order, want)
		}
	}
}

// TestFairQueueWeightedFlows: within one tenant, a priority-3 sweep gets
// three dequeues for each one of a priority-1 sweep.
func TestFairQueueWeightedFlows(t *testing.T) {
	q := newFairQueue(16)
	for i := 0; i < 6; i++ {
		q.Push(fqJob(string(rune('A'+i)), flowKey{tenant: "t", sweep: "hi"}), 3)
	}
	for i := 0; i < 2; i++ {
		q.Push(fqJob(string(rune('u'+i)), flowKey{tenant: "t", sweep: "lo"}), 1)
	}
	order := drainOrder(t, q)
	want := []string{"A", "B", "C", "u", "D", "E", "F", "v"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order = %v, want %v", order, want)
		}
	}
}

// TestFairQueueSingletonCapacity: only the per-tenant singleton flows are
// bounded by capacity; sweep flows enqueue past it.
func TestFairQueueSingletonCapacity(t *testing.T) {
	q := newFairQueue(1)
	if err := q.Push(fqJob("s1", flowKey{tenant: "t"}), 1); err != nil {
		t.Fatalf("first singleton push: %v", err)
	}
	if err := q.Push(fqJob("s2", flowKey{tenant: "t"}), 1); !errors.Is(err, errQueueFull) {
		t.Fatalf("second singleton push: err = %v, want errQueueFull", err)
	}
	for i := 0; i < 10; i++ {
		if err := q.Push(fqJob(string(rune('a'+i)), flowKey{tenant: "t", sweep: "sw"}), 1); err != nil {
			t.Fatalf("sweep push %d past singleton capacity: %v", i, err)
		}
	}
	if !q.SinglesSaturated() {
		t.Fatal("SinglesSaturated = false with the singleton flow full")
	}
	if q.Len() != 11 {
		t.Fatalf("Len = %d, want 11", q.Len())
	}
}

// TestFairQueueRemove: a removed job is never dequeued, and the drained
// flow/tenant leave the rotation.
func TestFairQueueRemove(t *testing.T) {
	q := newFairQueue(16)
	j1 := fqJob("j1", flowKey{tenant: "t", sweep: "sw"})
	j2 := fqJob("j2", flowKey{tenant: "t", sweep: "sw"})
	q.Push(j1, 1)
	q.Push(j2, 1)
	if !q.Remove(j1) {
		t.Fatal("Remove(j1) = false for a queued job")
	}
	if q.Remove(j1) {
		t.Fatal("Remove(j1) = true twice")
	}
	order := drainOrder(t, q)
	if len(order) != 1 || order[0] != "j2" {
		t.Fatalf("drain after remove = %v, want [j2]", order)
	}
	if d := q.Depths(); len(d) != 0 {
		t.Fatalf("Depths after drain = %v, want empty", d)
	}
}

// TestFairQueueClose: a closed queue rejects pushes and Pop drains the
// backlog before reporting done.
func TestFairQueueClose(t *testing.T) {
	q := newFairQueue(16)
	q.Push(fqJob("j1", flowKey{tenant: "t"}), 1)
	q.Close()
	if err := q.Push(fqJob("j2", flowKey{tenant: "t"}), 1); !errors.Is(err, errQueueClosed) {
		t.Fatalf("push after close: err = %v, want errQueueClosed", err)
	}
	j, ok := q.Pop()
	if !ok || j.ID != "j1" {
		t.Fatalf("Pop after close = (%v, %v), want the queued job", j, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on a closed empty queue reported more work")
	}
}
