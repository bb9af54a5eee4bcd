package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is one sweep-progress observation delivered to a ProgressFunc.
type Progress struct {
	// Done counts completed cells and Total the sweep size.
	Done, Total int
	// Elapsed is the time since the sweep started; ETA the estimated
	// time remaining (zero once the last cell finishes).
	Elapsed, ETA time.Duration
	// SimCycles is the total simulated cycles of the completed cells and
	// CyclesPerSec the resulting host-side simulation throughput
	// (SimCycles / Elapsed). Both are zero unless the sweep carries a
	// Meter (Options.Meter / Pool.Meter).
	SimCycles    uint64
	CyclesPerSec float64
}

// ProgressFunc observes sweep progress after each completed cell.
// Implementations must be fast; the pool invokes the callback under its
// bookkeeping lock, so Done is strictly increasing across calls.
type ProgressFunc func(p Progress)

// Meter accumulates simulated cycles across a sweep's cells so progress
// reporting can surface simulation throughput. Cell runners fold each
// finished gpu.Result's cycle count into the meter (and zero the Result's
// host-timing fields, keeping Results bit-deterministic). Safe for
// concurrent use.
type Meter struct{ cycles atomic.Uint64 }

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// Add folds one finished cell's cycle count in.
func (m *Meter) Add(cycles uint64) { m.cycles.Add(cycles) }

// Cycles returns the total simulated cycles folded in so far.
func (m *Meter) Cycles() uint64 { return m.cycles.Load() }

// Pool runs independent simulation cells on a bounded goroutine worker pool.
// The zero value is ready to use: Workers <= 0 means GOMAXPROCS.
//
// Every experiment sweep in this package (RunMatrix, the sensitivity
// studies, the footprint analyses) dispatches its cells through a Pool, and
// the command-line tools expose the worker count as -workers. Cells must be
// independent: each one builds its own workload program, configuration copy,
// scheduler, and simulator, so runs are data-race-free and bit-identical to
// a serial execution regardless of completion order.
type Pool struct {
	// Workers bounds the number of concurrently executing cells.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called after each completed cell.
	Progress ProgressFunc
	// Meter, when non-nil, supplies the simulated-cycle totals reported
	// in Progress observations (cells must feed it; see Options.Meter).
	Meter *Meter
}

// PanicError is a panic recovered from a worker-pool cell, surfaced as an
// ordinary error so one corrupt cell cannot take down a whole sweep.
type PanicError struct {
	// Cell is the index of the cell that panicked.
	Cell int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exp: cell %d panicked: %v", e.Cell, e.Value)
}

// effectiveWorkers resolves the worker count for n cells.
func (p Pool) effectiveWorkers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run evaluates fn(0) .. fn(n-1), at most Workers at a time, and returns the
// error of the lowest-index failing cell (nil if every cell succeeded).
//
// Error semantics match a serial loop exactly: cells are claimed in index
// order, the first failure stops new cells from starting, in-flight cells
// run to completion, and among all failures the lowest index wins — so a
// parallel run returns the same error a `for i := 0; i < n; i++` loop would.
// A cell that panics is recovered and reported as a *PanicError.
func (p Pool) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.effectiveWorkers(n)

	var (
		next   atomic.Int64 // next cell index to claim
		failed atomic.Bool  // stops new cells from starting

		mu       sync.Mutex
		firstIdx = n // lowest failing cell index seen
		firstErr error
		done     int
		start    = time.Now()
	)
	finish := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed.Store(true)
			if i < firstIdx {
				firstIdx, firstErr = i, err
			}
			return
		}
		done++
		if p.Progress != nil {
			pr := Progress{Done: done, Total: n, Elapsed: time.Since(start)}
			if done < n {
				pr.ETA = pr.Elapsed / time.Duration(done) * time.Duration(n-done)
			}
			if p.Meter != nil {
				pr.SimCycles = p.Meter.Cycles()
				if secs := pr.Elapsed.Seconds(); secs > 0 {
					pr.CyclesPerSec = float64(pr.SimCycles) / secs
				}
			}
			p.Progress(pr)
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				// Claims are strictly index-ordered and a claimed cell
				// always runs, so when any cell fails, every lower-index
				// cell has already been claimed and will report its own
				// outcome — the min-index winner below is exactly the
				// error a serial loop would have returned.
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				finish(i, runCell(i, fn))
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runCell executes one cell with panic recovery.
func runCell(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Cell: i, Value: r, Stack: buf}
		}
	}()
	return fn(i)
}

// pool returns the Pool configured by these Options.
func (o Options) pool() Pool {
	return Pool{Workers: o.Workers, Progress: o.Progress, Meter: o.Meter}
}

// sweep evaluates n independent cells through the Options' pool and returns
// their results in index order, so callers render output identical to a
// serial loop regardless of cell completion order.
func sweep[T any](o Options, n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := o.pool().Run(n, func(i int) error {
		v, err := run(i)
		if err != nil {
			return err
		}
		out[i] = v // each cell owns its own index: no write overlaps
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
