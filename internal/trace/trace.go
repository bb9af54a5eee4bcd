// Package trace records structured simulation events (kernel lifecycle,
// thread-block placement and retirement, launch backpressure, timeline
// samples) and exports them as JSON Lines and Perfetto JSON for debugging
// and visualisation. Recorder.Attach wires the recorder into gpu.Options'
// trace hooks — the kernel-instance timestamps arrive through TraceKernel as
// the run ends — and FinishRun orders the events, so it costs nothing when
// unused. `lapermsim -out` and lapermd write these exports as part of one
// run-artifact set (serve.RunArtifacts).
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"laperm/internal/gpu"
)

// Kind labels an event.
type Kind string

// Event kinds, in lifecycle order.
const (
	// KernelLaunched: a device-side launch instruction executed (or a
	// host kernel was submitted).
	KernelLaunched Kind = "kernel_launched"
	// KernelArrived: the launch latency elapsed; the instance became
	// visible to the KMU or TB scheduler.
	KernelArrived Kind = "kernel_arrived"
	// TBDispatched: the TB scheduler placed one thread block on an SMX.
	TBDispatched Kind = "tb_dispatched"
	// TBCompleted: a thread block retired from its SMX; Dur holds its
	// residency in cycles.
	TBCompleted Kind = "tb_completed"
	// KernelCompleted: every thread block of the instance finished.
	KernelCompleted Kind = "kernel_completed"
	// LaunchStalled: a warp's device-side launch found its queue (KMU
	// pending pool or DTBL aggregation buffer) full and stalled; one
	// event per stall episode, not per retry cycle.
	LaunchStalled Kind = "launch_stalled"
	// QueueOverflow: a DTBL launch found the aggregation buffer full and
	// was demoted to the KMU path (DropToKMU policy).
	QueueOverflow Kind = "queue_overflow"
	// SampleTaken: one timeline sample window closed; Sample carries the
	// windowed counters.
	SampleTaken Kind = "sample"
)

// kindRank orders events sharing a cycle so traces are byte-stable: a
// kernel launches before it arrives, dispatches before blocks complete,
// and completes last.
func kindRank(k Kind) int {
	switch k {
	case KernelLaunched:
		return 0
	case KernelArrived:
		return 1
	case LaunchStalled:
		return 2
	case QueueOverflow:
		return 3
	case TBDispatched:
		return 4
	case SampleTaken:
		return 5
	case TBCompleted:
		return 6
	case KernelCompleted:
		return 7
	}
	return 8
}

// Event is one recorded simulation event.
type Event struct {
	Cycle    uint64 `json:"cycle"`
	Kind     Kind   `json:"kind"`
	Kernel   int    `json:"kernel"`
	Name     string `json:"name"`
	Priority int    `json:"priority"`
	// Parent is the launching kernel's ID, or -1 for host kernels.
	Parent int `json:"parent"`
	// TB and SMX are set for TBDispatched events (-1 otherwise).
	TB  int `json:"tb"`
	SMX int `json:"smx"`
	// Queue names the full launch queue ("kmu" or "agg") for
	// LaunchStalled and QueueOverflow events.
	Queue string `json:"queue,omitempty"`
	// Dur is the thread block's SMX residency for TBCompleted events.
	Dur uint64 `json:"dur,omitempty"`
	// Sample carries the windowed counters of SampleTaken events.
	Sample *gpu.Sample `json:"sample,omitempty"`
}

// Recorder accumulates events from one simulation run.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Attach points every trace hook of g at r: TB dispatch and completion,
// launch backpressure, timeline samples (delivered only when the run
// samples) and the kernel lifecycles. A caller that needs a hook for itself
// too wraps the one Attach installed.
func (r *Recorder) Attach(g *gpu.Options) {
	g.TraceDispatch = r.DispatchHook()
	g.TraceQueue = r.QueueHook()
	g.TraceBlockDone = r.BlockHook()
	g.TraceSample = r.SampleHook()
	g.TraceKernel = r.KernelHook()
}

// DispatchHook returns a function suitable for gpu.Options.TraceDispatch
// that records TBDispatched events.
func (r *Recorder) DispatchHook() func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
	return func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
		r.events = append(r.events, Event{
			Cycle:    cycle,
			Kind:     TBDispatched,
			Kernel:   ki.ID,
			Name:     ki.Prog.Name,
			Priority: ki.Priority,
			Parent:   parentID(ki),
			TB:       tbIndex,
			SMX:      smxID,
		})
	}
}

// QueueHook returns a function suitable for gpu.Options.TraceQueue that
// records launch backpressure episodes (LaunchStalled and QueueOverflow
// events). The stalled or overflowed launch has no kernel instance yet, so
// Kernel is -1 and Name/Priority describe the child grid; Parent is the
// launching instance.
func (r *Recorder) QueueHook() func(gpu.QueueEvent) {
	return func(ev gpu.QueueEvent) {
		kind := LaunchStalled
		if ev.Kind == gpu.QueueOverflow {
			kind = QueueOverflow
		}
		r.events = append(r.events, Event{
			Cycle:    ev.Cycle,
			Kind:     kind,
			Kernel:   -1,
			Name:     ev.Child.Name,
			Priority: ev.Parent.Priority + 1,
			Parent:   ev.Parent.ID,
			TB:       -1,
			SMX:      ev.SMX,
			Queue:    ev.Queue,
		})
	}
}

// BlockHook returns a function suitable for gpu.Options.TraceBlockDone
// that records TBCompleted events with the block's SMX residency as Dur.
func (r *Recorder) BlockHook() func(ki *gpu.KernelInstance, tbIndex, smxID int, dispatchCycle, cycle uint64) {
	return func(ki *gpu.KernelInstance, tbIndex, smxID int, dispatchCycle, cycle uint64) {
		r.events = append(r.events, Event{
			Cycle:    cycle,
			Kind:     TBCompleted,
			Kernel:   ki.ID,
			Name:     ki.Prog.Name,
			Priority: ki.Priority,
			Parent:   parentID(ki),
			TB:       tbIndex,
			SMX:      smxID,
			Dur:      cycle - dispatchCycle,
		})
	}
}

// SampleHook returns a function suitable for gpu.Options.TraceSample that
// records SampleTaken events carrying the windowed counters.
func (r *Recorder) SampleHook() func(s gpu.Sample) {
	return func(s gpu.Sample) {
		smp := s
		r.events = append(r.events, Event{
			Cycle:  s.Cycle,
			Kind:   SampleTaken,
			Kernel: -1,
			Parent: -1,
			TB:     -1,
			SMX:    -1,
			Sample: &smp,
		})
	}
}

// KernelHook returns a function suitable for gpu.Options.TraceKernel that
// records an instance's lifecycle events: KernelLaunched, KernelArrived and
// KernelCompleted. An instance whose launch latency had not elapsed when
// the run ended (ArriveCycle beyond end) gets no KernelArrived event: the
// arrival never happened; an incomplete one gets no KernelCompleted.
func (r *Recorder) KernelHook() func(ki *gpu.KernelInstance, end uint64) {
	return func(ki *gpu.KernelInstance, end uint64) {
		base := Event{
			Kernel:   ki.ID,
			Name:     ki.Prog.Name,
			Priority: ki.Priority,
			Parent:   parentID(ki),
			TB:       -1,
			SMX:      -1,
		}
		launched := base
		launched.Cycle, launched.Kind = ki.LaunchCycle, KernelLaunched
		r.events = append(r.events, launched)

		if ki.ArriveCycle <= end {
			arrived := base
			arrived.Cycle, arrived.Kind = ki.ArriveCycle, KernelArrived
			r.events = append(r.events, arrived)
		}

		if ki.Complete() {
			completed := base
			completed.Cycle, completed.Kind = ki.CompleteCycle, KernelCompleted
			r.events = append(r.events, completed)
		}
	}
}

// FinishRun orders the trace. Call it after Run returns; events are ordered
// by cycle, with ties broken by lifecycle rank, kernel ID, and TB index, so
// equal runs produce byte-identical traces.
func (r *Recorder) FinishRun() { sortEvents(r.events) }

// sortEvents orders events by cycle, lifecycle rank, kernel ID, and TB
// index, keeping the recorded order among equals. It sorts small keys and
// then moves each event once, instead of shuffling the wide events through
// a stable merge.
func sortEvents(events []Event) {
	type key struct {
		cycle      uint64
		kernel, tb int
		rank, at   int32
	}
	keys := make([]key, len(events))
	for i := range events {
		e := &events[i]
		keys[i] = key{e.Cycle, e.Kernel, e.TB, int32(kindRank(e.Kind)), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.cycle, b.cycle); c != 0 {
			return c
		}
		if c := cmp.Compare(a.rank, b.rank); c != 0 {
			return c
		}
		if c := cmp.Compare(a.kernel, b.kernel); c != 0 {
			return c
		}
		if c := cmp.Compare(a.tb, b.tb); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
	// Apply the permutation in place, one cycle at a time: slot i takes the
	// event recorded at keys[i].at; a moved slot's key is marked -1.
	for i := range keys {
		if keys[i].at < 0 {
			continue
		}
		held := events[i]
		for j := i; ; {
			src := int(keys[j].at)
			keys[j].at = -1
			if src == i {
				events[j] = held
				break
			}
			events[j] = events[src]
			j = src
		}
	}
}

func parentID(ki *gpu.KernelInstance) int {
	if ki.Parent == nil {
		return -1
	}
	return ki.Parent.ID
}

// Events returns the recorded events (cycle-ordered after FinishRun).
func (r *Recorder) Events() []Event { return r.events }

// Len returns the event count.
func (r *Recorder) Len() int { return len(r.events) }

// WriteJSONL writes one JSON object per line. On an event holding a value
// JSON cannot encode (a NaN or infinite sample counter) it writes the lines
// before it and returns an error naming the event.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	j := newJSONBuf(w)
	for i := range r.events {
		line := len(j.b)
		j.event(&r.events[i])
		if j.err != nil {
			j.b = j.b[:line]
			j.flush(true)
			return fmt.Errorf("trace: event %d: %w", i, j.err)
		}
		j.flush(false)
	}
	j.flush(true)
	return j.werr
}

// Summary aggregates the trace into per-kernel-name counts, useful for a
// quick look at what a run did.
func (r *Recorder) Summary() map[string]map[Kind]int {
	out := make(map[string]map[Kind]int)
	for _, e := range r.events {
		if out[e.Name] == nil {
			out[e.Name] = make(map[Kind]int)
		}
		out[e.Name][e.Kind]++
	}
	return out
}
