package core

import (
	"testing"

	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// residencyDispatcher reports a programmable resident-TB count.
type residencyDispatcher struct {
	fakeDispatcher
	resident []int
}

func (r *residencyDispatcher) ResidentTBs(smx int) int { return r.resident[smx] }

func TestThrottledCapsResidency(t *testing.T) {
	rr := NewRoundRobin()
	th := NewThrottled(rr, 2)
	if th.Name() != "rr+throttle" {
		t.Errorf("Name = %q", th.Name())
	}
	th.Enqueue(ki(0, 0, -1, nil, 4))
	d := &residencyDispatcher{
		fakeDispatcher: fakeDispatcher{numSMX: 2},
		resident:       []int{2, 1}, // SMX 0 at cap, SMX 1 has room
	}
	for i := 0; i < 4; i++ {
		k, smx := th.Select(d)
		if k == nil {
			break
		}
		k.NextTB++
		if smx != 1 {
			t.Errorf("dispatch %d went to saturated SMX %d", i, smx)
		}
	}
	// Saturate both: nothing dispatches.
	d.resident = []int{2, 2}
	if k, _ := th.Select(d); k != nil {
		t.Error("dispatch despite both SMXs at cap")
	}
}

func TestThrottledHonoursUnderlyingFit(t *testing.T) {
	th := NewThrottled(NewRoundRobin(), 16)
	th.Enqueue(ki(0, 0, -1, nil, 1))
	d := &residencyDispatcher{
		fakeDispatcher: fakeDispatcher{numSMX: 2, fit: func(int, *isa.TB) bool { return false }},
		resident:       []int{0, 0},
	}
	if k, _ := th.Select(d); k != nil {
		t.Error("throttled scheduler ignored underlying CanFit")
	}
}

func TestNewThrottledPanicsOnZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero cap")
		}
	}()
	NewThrottled(NewRoundRobin(), 0)
}

func TestThrottledWrapsAnyScheduler(t *testing.T) {
	for _, inner := range []gpu.TBScheduler{
		NewTBPri(4), NewSMXBind(2, 4), NewAdaptiveBind(2, 4),
	} {
		th := NewThrottled(inner, 1)
		th.Enqueue(ki(0, 1, 0, ki(9, 0, -1, nil, 1), 1))
		d := &residencyDispatcher{
			fakeDispatcher: fakeDispatcher{numSMX: 2},
			resident:       []int{0, 0},
		}
		dispatched := false
		for i := 0; i < 4; i++ {
			if k, _ := th.Select(d); k != nil {
				k.NextTB++
				dispatched = true
			}
		}
		if !dispatched {
			t.Errorf("%s: throttled wrapper never dispatched", th.Name())
		}
	}
}

func TestAdaptiveBindFreeBackupStillCompletes(t *testing.T) {
	ab := NewBindClusters(2, 1, 4, BackupFree)
	child := ki(0, 1, 0, ki(9, 0, -1, nil, 1), 4)
	ab.Enqueue(child)
	d := &fakeDispatcher{numSMX: 2}
	n := 0
	for i := 0; i < 12 && n < 4; i++ {
		k, _ := ab.Select(d)
		if k == nil {
			continue
		}
		k.NextTB++
		n++
	}
	if n != 4 {
		t.Fatalf("free-backup variant dispatched %d of 4 TBs", n)
	}
	if ab.Steals == 0 {
		t.Error("free-backup variant recorded no steals")
	}
}
