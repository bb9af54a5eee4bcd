package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"laperm/internal/gpu"
	"laperm/internal/isa"
	"laperm/internal/telemetry"
	"laperm/internal/trace"
)

// The traced pass measures each layer from outside: spans around calls into
// public functions, the engine's TraceSpan hook, counters read from Results
// and /metrics, and a counting wrapper around the TB scheduler. None of it
// runs in an untraced pass.

// tracer records one traced pass: a telemetry.Flight per op (tracks named by
// layer), the span durations the per-layer metrics summarize, and counters.
// Its methods are safe for the two service-mix clients to call at once.
type tracer struct {
	// all collects every span of the pass for the Perfetto file. It is
	// created before the first op, because a flight renders spans relative
	// to its begin time.
	all *telemetry.Flight

	mu      sync.Mutex
	flights []*telemetry.Flight
	durs    map[string][]time.Duration // "track/name" -> span durations
	sim     simCounts
	core    coreCounts
	exp     map[string]*expStats
	// serve holds the server's Prometheus counters at the end of the pass.
	serve    map[string]float64
	heapPeak uint64
}

// simCounts accumulates what the simulated runs of a pass reported.
type simCounts struct {
	runs, deadlocks int
	// cycles counts every run's simulated cycles, deadlocked ones up to
	// the verdict; doneCycles only those of completed runs.
	cycles, doneCycles                 float64
	launches, insts, memStalls         float64
	l1Acc, l1Hit, l2Acc, l2Hit, dramTx float64
}

type expStats struct {
	durs  []time.Duration
	alloc uint64
}

func newTracer(name string) *tracer {
	return &tracer{all: telemetry.NewFlight(name), durs: map[string][]time.Duration{}, exp: map[string]*expStats{}}
}

// flight starts the flight of one op.
func (t *tracer) flight(id string) *telemetry.Flight {
	f := telemetry.NewFlight(id)
	t.mu.Lock()
	t.flights = append(t.flights, f)
	t.mu.Unlock()
	return f
}

// span records a closed span on an op's flight. who names the service-mix
// client ("" elsewhere), so the two clients' spans land on separate rows.
func (t *tracer) span(f *telemetry.Flight, who, track, name string, start, end time.Time) {
	f.Add(track, name, start, end)
	row := track
	if who != "" {
		row = who + " " + track
	}
	t.all.Add(row, name, start, end)
	t.mu.Lock()
	t.durs[track+"/"+name] = append(t.durs[track+"/"+name], end.Sub(start))
	t.mu.Unlock()
}

// record notes a duration derived from spans rather than measured as one.
func (t *tracer) record(track, name string, d time.Duration) {
	t.mu.Lock()
	t.durs[track+"/"+name] = append(t.durs[track+"/"+name], d)
	t.mu.Unlock()
}

// addRun folds one simulated run into the counters: its Result, or the
// cycle a deadlock verdict fired at.
func (t *tracer) addRun(res *gpu.Result, runErr error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sim.runs++
	var dl *gpu.DeadlockError
	if errors.As(runErr, &dl) {
		t.sim.deadlocks++
		t.sim.cycles += float64(dl.Cycle)
		return
	}
	if res == nil {
		return
	}
	t.sim.cycles += float64(res.Cycles)
	t.sim.doneCycles += float64(res.Cycles)
	t.sim.launches += float64(res.DynamicKernelCount)
	t.sim.insts += float64(res.ThreadInsts)
	for _, st := range res.SMXStats {
		t.sim.memStalls += float64(st.MemStallEvents)
	}
	t.sim.l1Acc += float64(res.L1.Accesses)
	t.sim.l1Hit += float64(res.L1.Hits)
	t.sim.l2Acc += float64(res.L2.Accesses)
	t.sim.l2Hit += float64(res.L2.Hits)
	t.sim.dramTx += float64(res.DRAMTransactions)
}

func (t *tracer) addCore(c coreCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.core.enqueues += c.enqueues
	t.core.selects += c.selects
	t.core.hits += c.hits
	t.core.canFits += c.canFits
	t.core.selectTime += c.selectTime
}

func (t *tracer) addExp(id string, d time.Duration, alloc uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.exp[id]
	if st == nil {
		st = &expStats{}
		t.exp[id] = st
	}
	st.durs = append(st.durs, d)
	st.alloc += alloc
}

func (t *tracer) noteHeap() {
	h := heapLiveBytes()
	t.mu.Lock()
	if h > t.heapPeak {
		t.heapPeak = h
	}
	t.mu.Unlock()
}

func (t *tracer) spans(track, name string) []time.Duration { return t.durs[track+"/"+name] }

// writePerfetto writes every span of the pass as Chrome trace JSON.
func (t *tracer) writePerfetto(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteFlightPerfetto(f, t.all); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes sums, per track, each span's self time: its duration minus the
// part of it that spans enclosed by it on the same flight cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, f := range t.flights {
		spans := f.Spans()
		sort.SliceStable(spans, func(i, j int) bool {
			if !spans[i].Start.Equal(spans[j].Start) {
				return spans[i].Start.Before(spans[j].Start)
			}
			return spans[i].End.After(spans[j].End)
		})
		// Walk in start order with a stack of open ancestors; each span
		// charges its interval, clipped to its parent, to that parent.
		covered := make([]time.Duration, len(spans))
		var stack []int
		for i, sp := range spans {
			for len(stack) > 0 && !spans[stack[len(stack)-1]].End.After(sp.Start) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				end := sp.End
				if end.After(spans[p].End) {
					end = spans[p].End
				}
				covered[p] += end.Sub(sp.Start)
			}
			stack = append(stack, i)
		}
		for i, sp := range spans {
			if d := sp.End.Sub(sp.Start) - covered[i]; d > 0 {
				self[sp.Track] += d
			}
		}
	}
	return self
}

// writeSelfTimes prints the per-layer self-time table of a traced pass.
func (t *tracer) writeSelfTimes(w io.Writer, total time.Duration) {
	self := t.selfTimes()
	tracks := make([]string, 0, len(self))
	for tr := range self {
		tracks = append(tracks, tr)
	}
	sort.Strings(tracks)
	fmt.Fprintf(w, "# self time by layer (share of op time)\n")
	for _, tr := range tracks {
		fmt.Fprintf(w, "#   %-8s %10.1f ms  %6.2f%%\n", tr, ms(self[tr]), 100*self[tr].Seconds()/total.Seconds())
	}
}

// coreCounts is what the counting scheduler wrapper observed.
type coreCounts struct {
	enqueues, selects, hits, canFits uint64
	selectTime                       time.Duration
}

// countingScheduler wraps the TBScheduler handed to gpu.Options and counts
// and times the engine's calls into the core layer.
type countingScheduler struct {
	inner gpu.TBScheduler
	n     *coreCounts
	disp  countingDispatcher
}

// wrapScheduler returns the counting wrapper of inner. It implements
// gpu.IdleAware exactly when inner does: hiding the interface would make
// the fast-forward clock poll Select every cycle, changing the very cost
// the wrapper is there to measure.
func wrapScheduler(inner gpu.TBScheduler, n *coreCounts) gpu.TBScheduler {
	s := &countingScheduler{inner: inner, n: n, disp: countingDispatcher{n: n}}
	if ia, ok := inner.(gpu.IdleAware); ok {
		return idleCountingScheduler{s, ia}
	}
	return s
}

func (s *countingScheduler) Name() string { return s.inner.Name() }

func (s *countingScheduler) Enqueue(k *gpu.KernelInstance) {
	s.n.enqueues++
	s.inner.Enqueue(k)
}

func (s *countingScheduler) Select(d gpu.Dispatcher) (*gpu.KernelInstance, int) {
	s.n.selects++
	s.disp.Dispatcher = d
	start := time.Now()
	k, smx := s.inner.Select(&s.disp)
	s.n.selectTime += time.Since(start)
	if k != nil {
		s.n.hits++
	}
	return k, smx
}

type idleCountingScheduler struct {
	*countingScheduler
	idle gpu.IdleAware
}

func (s idleCountingScheduler) IdleSelectPeriod() int     { return s.idle.IdleSelectPeriod() }
func (s idleCountingScheduler) SkipIdleSelects(n uint64)  { s.idle.SkipIdleSelects(n) }
func (s idleCountingScheduler) SkipEmptySelects(n uint64) { s.idle.SkipEmptySelects(n) }

// countingDispatcher is the engine view passed into Select, counting the
// CanFit probes a scheduler makes per Select.
type countingDispatcher struct {
	gpu.Dispatcher
	n *coreCounts
}

func (d *countingDispatcher) CanFit(smxID int, tb *isa.TB) bool {
	d.n.canFits++
	return d.Dispatcher.CanFit(smxID, tb)
}
