package gpu

import (
	"slices"
	"testing"
)

// FuzzKMUFIFO drives push/pop sequences through the amortised head-cursor
// queue (instQueue, as each KMU priority level uses it) and cross-checks
// every observable against a trivial reference implementation, so the
// head-compaction path cannot silently reorder, drop, or duplicate entries.
func FuzzKMUFIFO(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1})
	// Long alternating runs push the head cursor past compactThreshold.
	long := make([]byte, 512)
	for i := range long {
		long[i] = byte(i % 2)
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, ops []byte) {
		var q instQueue
		var ref []*KernelInstance
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				ki := &KernelInstance{ID: next}
				next++
				q.push(ki)
				ref = append(ref, ki)
			} else {
				got := q.pop()
				if len(ref) == 0 {
					if got != nil {
						t.Fatalf("pop on empty queue returned kernel %d", got.ID)
					}
					continue
				}
				want := ref[0]
				ref = ref[1:]
				if got == nil {
					t.Fatalf("pop returned nil, want kernel %d", want.ID)
				}
				if got != want {
					t.Fatalf("pop returned kernel %d, want %d (FIFO order broken)", got.ID, want.ID)
				}
			}
			if head := q.peek(); len(ref) == 0 && head != nil || len(ref) > 0 && head != ref[0] {
				t.Fatalf("peek disagrees with the reference head (%d queued)", len(ref))
			}
			if q.len() != len(ref) {
				t.Fatalf("len() = %d, reference %d", q.len(), len(ref))
			}
			if q.empty() != (len(ref) == 0) {
				t.Fatalf("empty() = %v with %d queued", q.empty(), len(ref))
			}
			// The compaction contract: the head cursor never runs away
			// from the live region, so the backing array stays within a
			// constant factor of the queue's true size.
			if q.head >= compactThreshold && q.head*2 >= len(q.items) && q.len() > 0 {
				t.Fatalf("head %d / backing %d escaped compaction", q.head, len(q.items))
			}
			// Every slot behind the head must have been nil'd for GC.
			for i := 0; i < q.head; i++ {
				if q.items[i] != nil {
					t.Fatalf("popped slot %d retains kernel %d", i, q.items[i].ID)
				}
			}
		}
	})
}

// FuzzArrivalOrdering checks the sorted insert used when DropToKMU
// demotions mix the two launch latencies, interleaved with the head pops
// deliverArrivals makes: the queue must stay nondecreasing in ArriveCycle
// from the head cursor onward, pop the instances in a stable sort's order
// (equal cycles in insertion order), and hold every inserted instance that
// was not popped.
func FuzzArrivalOrdering(f *testing.F) {
	f.Add([]byte{10, 200, 10, 10, 200, 30})
	f.Add([]byte{10, 200, 0xff, 10, 10, 0xff, 0xff, 200, 30, 0xff})
	f.Fuzz(func(t *testing.T, lat []byte) {
		if len(lat) > 256 {
			t.Skip("bounded input")
		}
		var q instQueue
		var ref []*KernelInstance // the live instances, stably sorted
		for i, l := range lat {
			if l == 0xff { // pop the head
				got := q.pop()
				if len(ref) == 0 {
					if got != nil {
						t.Fatalf("pop on empty queue returned kernel %d", got.ID)
					}
					continue
				}
				if got != ref[0] {
					t.Fatalf("pop returned kernel %d, want %d", got.ID, ref[0].ID)
				}
				ref = ref[1:]
				continue
			}
			ki := &KernelInstance{ID: i, ArriveCycle: uint64(l)}
			q.insert(ki)
			j := len(ref)
			for j > 0 && ref[j-1].ArriveCycle > ki.ArriveCycle {
				j--
			}
			ref = slices.Insert(ref, j, ki)
			for k := q.head + 1; k < len(q.items); k++ {
				if q.items[k-1].ArriveCycle > q.items[k].ArriveCycle {
					t.Fatalf("arrivals unsorted at %d: %d > %d",
						k, q.items[k-1].ArriveCycle, q.items[k].ArriveCycle)
				}
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("queue holds %d, want %d", q.len(), len(ref))
		}
		for k, ki := range ref {
			if q.items[q.head+k] != ki {
				t.Fatalf("entry %d is kernel %d, want %d", k, q.items[q.head+k].ID, ki.ID)
			}
		}
	})
}
