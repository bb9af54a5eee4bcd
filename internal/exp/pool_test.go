package exp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEveryCellExactlyOnce(t *testing.T) {
	const n = 100
	var ran [n]atomic.Int32
	err := Pool{Workers: 8}.Run(n, func(i int) error {
		ran[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("cell %d ran %d times", i, got)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := Pool{Workers: workers}.Run(50, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent cells, worker bound is %d", p, workers)
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	var ran atomic.Int32
	if err := (Pool{}).Run(10, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Errorf("ran %d cells, want 10", ran.Load())
	}
	if err := (Pool{}).Run(0, func(int) error { t.Error("cell ran for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRecoversPanicsAsErrors(t *testing.T) {
	err := Pool{Workers: 4}.Run(10, func(i int) error {
		if i == 5 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Cell != 5 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = cell %d value %v stack %d bytes", pe.Cell, pe.Value, len(pe.Stack))
	}
}

func TestPoolReturnsLowestIndexError(t *testing.T) {
	// Cell 3 fails slowly, cell 7 fails instantly. A serial loop would
	// report cell 3; the pool must return the same error even though cell
	// 7's failure lands first.
	err := Pool{Workers: 8}.Run(20, func(i int) error {
		switch i {
		case 3:
			time.Sleep(30 * time.Millisecond)
			return fmt.Errorf("cell 3 failed")
		case 7:
			return fmt.Errorf("cell 7 failed")
		}
		return nil
	})
	if err == nil || err.Error() != "cell 3 failed" {
		t.Errorf("err = %v, want the lowest-index failure (cell 3)", err)
	}
}

func TestPoolStopsClaimingAfterFailure(t *testing.T) {
	const n = 1000
	var ran atomic.Int32
	err := Pool{Workers: 2}.Run(n, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return fmt.Errorf("early failure")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got > n/2 {
		t.Errorf("%d of %d cells ran after an immediate failure; cancellation is not working", got, n)
	}
}

func TestPoolProgressMonotonicWithETA(t *testing.T) {
	const n = 25
	var mu sync.Mutex
	var dones []int
	var lastETA time.Duration
	p := Pool{Workers: 4, Progress: func(pr Progress) {
		mu.Lock()
		defer mu.Unlock()
		if pr.Total != n {
			t.Errorf("total = %d, want %d", pr.Total, n)
		}
		if pr.ETA < 0 {
			t.Errorf("negative ETA %v", pr.ETA)
		}
		if pr.SimCycles != 0 || pr.CyclesPerSec != 0 {
			t.Errorf("meterless pool reported throughput %d cycles / %.0f c/s", pr.SimCycles, pr.CyclesPerSec)
		}
		dones = append(dones, pr.Done)
		lastETA = pr.ETA
	}}
	if err := p.Run(n, func(int) error { time.Sleep(time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(dones) != n {
		t.Fatalf("progress called %d times, want %d", len(dones), n)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not strictly increasing by 1", dones)
		}
	}
	if lastETA != 0 {
		t.Errorf("final ETA = %v, want 0", lastETA)
	}
}

// TestPoolProgressReportsMeteredThroughput pins the metered progress path:
// cells fold simulated cycles into the pool's Meter, and every observation
// reports a monotonically non-decreasing cycle total, with the final one
// seeing every cell's contribution.
func TestPoolProgressReportsMeteredThroughput(t *testing.T) {
	const n = 8
	const perCell = 1000
	m := NewMeter()
	var mu sync.Mutex
	var last Progress
	p := Pool{Workers: 2, Meter: m, Progress: func(pr Progress) {
		mu.Lock()
		defer mu.Unlock()
		if pr.SimCycles < last.SimCycles {
			t.Errorf("SimCycles went backwards: %d after %d", pr.SimCycles, last.SimCycles)
		}
		last = pr
	}}
	if err := p.Run(n, func(i int) error { m.Add(perCell); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.Cycles(); got != n*perCell {
		t.Errorf("Meter.Cycles() = %d, want %d", got, n*perCell)
	}
	if last.SimCycles != n*perCell {
		t.Errorf("final Progress.SimCycles = %d, want %d", last.SimCycles, n*perCell)
	}
	if last.Done != n {
		t.Errorf("final Progress.Done = %d, want %d", last.Done, n)
	}
}

func TestSweepReturnsResultsInIndexOrder(t *testing.T) {
	o := Options{Workers: 8}
	out, err := sweep(o, 64, func(i int) (int, error) {
		time.Sleep(time.Duration(64-i) % 5 * time.Millisecond) // scramble completion order
		return i * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
	if _, err := sweep(o, 4, func(i int) (int, error) {
		if i == 2 {
			return 0, fmt.Errorf("boom")
		}
		return i, nil
	}); err == nil || err.Error() != "boom" {
		t.Errorf("sweep error = %v, want boom", err)
	}
}
