package trace

import (
	"io"
	"slices"
)

// Perfetto export: the recorded trace rendered in the Chrome trace_event
// JSON format understood by ui.perfetto.dev and chrome://tracing. One
// simulated cycle maps to one microsecond of trace time. The track layout:
//
//   - process "SMXs" (pid 1): one thread per SMX. Thread blocks appear as
//     complete ("X") slices spanning dispatch to retirement; launch stalls
//     and queue overflows as instant ("i") events on the stalling SMX.
//   - process "Kernels" (pid 2): each kernel instance is an async span
//     ("b"/"e") keyed by its instance ID, opened at launch and closed at
//     completion, with an async instant ("n") marking KMU/scheduler
//     arrival.
//   - process "Counters" (pid 3): timeline samples become counter ("C")
//     tracks — IPC, cache hit rates, resident TBs, live kernels, queue
//     depths, windowed stalls, and the windowed parent-child L1 share.
//
// The document is one JSON object {"traceEvents":[...]} followed by a
// newline. Each trace_event holds, in order, name, ph, cat, ts, dur, pid,
// tid, id, s and args, with cat, dur, id and s left out when empty and the
// args keys sorted, so the output is byte-stable.

const (
	pidSMX      = 1
	pidKernels  = 2
	pidCounters = 3
)

// WritePerfetto renders the recorder's events (FinishRun must have been
// called) as Chrome trace_event JSON.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	return WritePerfetto(w, r.events)
}

// WritePerfetto renders a cycle-ordered event list as Chrome trace_event
// JSON loadable in ui.perfetto.dev. The document is written as it is
// encoded; if an event holds a value JSON cannot encode (a NaN or infinite
// sample counter) the error is returned and what was written is garbage.
func WritePerfetto(w io.Writer, events []Event) error {
	j := newJSONBuf(w)
	j.raw(`{"traceEvents":[`)
	j.meta("process_name", pidSMX, 0, "SMXs", -1)
	j.meta("process_name", pidKernels, 0, "Kernels", -1)
	j.meta("process_name", pidCounters, 0, "Counters", -1)
	for _, id := range smxIDs(events) {
		j.meta("thread_name", pidSMX, id, "SMX ", id)
	}
	for i := range events {
		j.convert(&events[i])
		if j.err != nil {
			return j.err
		}
		j.flush(false)
	}
	j.raw("]}\n")
	j.flush(true)
	return j.werr
}

// smxIDs lists the distinct SMXs the events name, ascending.
func smxIDs(events []Event) []int {
	ids := make([]int, 0, len(events))
	for i := range events {
		if events[i].SMX >= 0 {
			ids = append(ids, events[i].SMX)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// open starts a trace_event up to the opening quote of its name, with the
// comma that separates it from the one before.
func (j *jsonBuf) open() {
	if j.events > 0 {
		j.raw(",")
	}
	j.events++
	j.raw(`{"name":"`)
}

// fields closes the name and writes the fields from ph to s, leaving out
// the empty ones as omitempty does.
func (j *jsonBuf) fields(ph, cat string, ts, dur uint64, pid, tid, id int, s string) {
	j.raw(`","ph":"`)
	j.raw(ph)
	j.raw(`"`)
	if cat != "" {
		j.raw(`,"cat":"`)
		j.raw(cat)
		j.raw(`"`)
	}
	j.raw(`,"ts":`)
	j.uint(ts)
	if dur != 0 {
		j.raw(`,"dur":`)
		j.uint(dur)
	}
	j.raw(`,"pid":`)
	j.int(pid)
	j.raw(`,"tid":`)
	j.int(tid)
	if id != 0 {
		j.raw(`,"id":`)
		j.int(id)
	}
	if s != "" {
		j.raw(`,"s":"`)
		j.raw(s)
		j.raw(`"`)
	}
}

// meta names a process or thread: the name is label, followed by num when
// num is not negative.
func (j *jsonBuf) meta(kind string, pid, tid int, label string, num int) {
	j.open()
	j.raw(kind)
	j.fields("M", "", 0, 0, pid, tid, 0, "")
	j.raw(`,"args":{"name":"`)
	j.escaped(label)
	if num >= 0 {
		j.int(num)
	}
	j.raw(`"}}`)
}

// convert appends the trace_events of one recorded event.
func (j *jsonBuf) convert(e *Event) {
	switch e.Kind {
	case TBCompleted:
		dur := e.Dur
		if dur == 0 {
			dur = 1 // zero-length slices are invisible in the UI
		}
		j.open()
		j.escaped(e.Name)
		j.raw("#")
		j.int(e.Kernel)
		j.raw(" tb")
		j.int(e.TB)
		j.fields("X", "tb", e.Cycle-e.Dur, dur, pidSMX, e.SMX, 0, "")
		j.raw(`,"args":{"kernel":`)
		j.int(e.Kernel)
		j.raw(`,"parent":`)
		j.int(e.Parent)
		j.raw(`,"priority":`)
		j.int(e.Priority)
		j.raw(`,"tb":`)
		j.int(e.TB)
		j.raw("}}")
	case KernelLaunched:
		j.kernelSpan(e, "b")
	case KernelArrived:
		j.kernelSpan(e, "n")
	case KernelCompleted:
		j.kernelSpan(e, "e")
	case LaunchStalled, QueueOverflow:
		j.open()
		j.escaped(string(e.Kind))
		j.raw(" ")
		j.escaped(e.Queue)
		j.fields("i", "stall", e.Cycle, 0, pidSMX, e.SMX, 0, "t")
		j.raw(`,"args":{"child":`)
		j.str(e.Name)
		j.raw(`,"parent":`)
		j.int(e.Parent)
		j.raw("}}")
	case SampleTaken:
		j.sampleCounters(e)
	}
	// TBDispatched adds nothing: dispatch is already the left edge of the
	// TBCompleted slice.
}

// kernelSpan appends one leg of a kernel instance's async span; the
// instance ID correlates begin, arrival instant, and end.
func (j *jsonBuf) kernelSpan(e *Event, ph string) {
	j.open()
	j.escaped(e.Name)
	j.raw("#")
	j.int(e.Kernel)
	j.fields(ph, "kernel", e.Cycle, 0, pidKernels, 0, e.Kernel+1, "")
	j.raw(`,"args":{"parent":`)
	j.int(e.Parent)
	j.raw(`,"priority":`)
	j.int(e.Priority)
	j.raw("}}")
}

// counter opens one counter ("C") event up to its first args key.
func (j *jsonBuf) counter(name string, ts uint64) {
	j.open()
	j.raw(name)
	j.fields("C", "", ts, 0, pidCounters, 0, 0, "")
	j.raw(`,"args":{`)
}

// sampleCounters fans one timeline sample out into counter tracks.
func (j *jsonBuf) sampleCounters(e *Event) {
	s := e.Sample
	if s == nil {
		return
	}
	j.counter("IPC", e.Cycle)
	j.raw(`"ipc":`)
	j.float(s.IPC)
	j.raw("}}")
	j.counter("cache hit rate", e.Cycle)
	j.raw(`"l1":`)
	j.float(s.L1)
	j.raw(`,"l2":`)
	j.float(s.L2)
	j.raw("}}")
	j.counter("resident TBs", e.Cycle)
	j.raw(`"tbs":`)
	j.int(s.ResidentTBs)
	j.raw("}}")
	j.counter("live kernels", e.Cycle)
	j.raw(`"kernels":`)
	j.int(s.LiveKernels)
	j.raw("}}")
	j.counter("launch queues", e.Cycle)
	j.raw(`"agg":`)
	j.int(s.AggEntries)
	j.raw(`,"kdu":`)
	j.int(s.KDUUsed)
	j.raw(`,"kmu":`)
	j.int(s.KMUQueued)
	j.raw(`,"pending":`)
	j.int(s.PendingArrivals)
	j.raw("}}")
	j.counter("TBs dispatched", e.Cycle)
	j.raw(`"tbs":`)
	j.uint(s.TBsDispatched)
	j.raw("}}")
	j.counter("stall cycles", e.Cycle)
	j.raw(`"launch":`)
	j.int64(s.LaunchStalls)
	j.raw(`,"mem":`)
	j.int64(s.MemStalls)
	j.raw("}}")
	j.counter("L1 parent-child share", e.Cycle)
	j.raw(`"share":`)
	j.float(s.L1ParentChild)
	j.raw("}}")
	if len(s.SMXResident) > 0 {
		j.counter("SMX occupancy", e.Cycle)
		for id := 0; id < len(s.SMXResident) && id < 100; id++ {
			j.occupancy(s.SMXResident, id)
		}
		j.raw("}}")
	}
}

// occupancy appends the "smxNN" key of SMX id (at least two digits), then
// those of the SMXs whose names extend it, so the keys come out in sorted
// string order: smx10, smx100, ..., smx109, smx11.
func (j *jsonBuf) occupancy(resident []int, id int) {
	if j.b[len(j.b)-1] != '{' {
		j.raw(",")
	}
	j.raw(`"smx`)
	if id < 10 {
		j.raw("0")
	}
	j.int(id)
	j.raw(`":`)
	j.int(resident[id])
	if id < 10 {
		return // smx0N has no longer extension
	}
	for c := id * 10; c < id*10+10 && c < len(resident); c++ {
		j.occupancy(resident, c)
	}
}
