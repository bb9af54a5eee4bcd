package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"laperm/internal/telemetry"
)

// The reference encoders: the exports as encoding/json renders them, kept
// as the oracle the append-based encoders must match byte for byte.

// refPerfettoEvent is one trace_event entry. Args is a map so json.Marshal
// emits keys sorted.
type refPerfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type refPerfettoTrace struct {
	TraceEvents []refPerfettoEvent `json:"traceEvents"`
}

// refFinishRun is FinishRun as a reflection-based stable sort: order by
// cycle, lifecycle rank, kernel ID, and TB index.
func refFinishRun(r *Recorder) {
	sort.SliceStable(r.events, func(i, j int) bool {
		a, b := &r.events[i], &r.events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if ra, rb := kindRank(a.Kind), kindRank(b.Kind); ra != rb {
			return ra < rb
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.TB < b.TB
	})
}

// refWriteJSONL writes one JSON object per line.
func refWriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
	}
	return nil
}

// refWritePerfetto renders a cycle-ordered event list as Chrome
// trace_event JSON.
func refWritePerfetto(w io.Writer, events []Event) error {
	out := refMetadataEvents(events)
	for i := range events {
		out = append(out, refConvertEvent(&events[i])...)
	}
	return json.NewEncoder(w).Encode(refPerfettoTrace{TraceEvents: out})
}

func refMetadataEvents(events []Event) []refPerfettoEvent {
	out := []refPerfettoEvent{
		refMeta("process_name", pidSMX, 0, "SMXs"),
		refMeta("process_name", pidKernels, 0, "Kernels"),
		refMeta("process_name", pidCounters, 0, "Counters"),
	}
	smxs := map[int]bool{}
	for i := range events {
		if events[i].SMX >= 0 {
			smxs[events[i].SMX] = true
		}
	}
	ids := make([]int, 0, len(smxs))
	for id := range smxs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, refMeta("thread_name", pidSMX, id, fmt.Sprintf("SMX %d", id)))
	}
	return out
}

func refMeta(kind string, pid, tid int, name string) refPerfettoEvent {
	return refPerfettoEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}}
}

func refConvertEvent(e *Event) []refPerfettoEvent {
	switch e.Kind {
	case TBCompleted:
		dur := e.Dur
		if dur == 0 {
			dur = 1
		}
		return []refPerfettoEvent{{
			Name: fmt.Sprintf("%s#%d tb%d", e.Name, e.Kernel, e.TB),
			Ph:   "X", Cat: "tb",
			Ts: e.Cycle - e.Dur, Dur: dur,
			Pid: pidSMX, Tid: e.SMX,
			Args: map[string]any{
				"kernel": e.Kernel, "tb": e.TB,
				"priority": e.Priority, "parent": e.Parent,
			},
		}}
	case KernelLaunched:
		return []refPerfettoEvent{refKernelSpan(e, "b")}
	case KernelArrived:
		return []refPerfettoEvent{refKernelSpan(e, "n")}
	case KernelCompleted:
		return []refPerfettoEvent{refKernelSpan(e, "e")}
	case LaunchStalled, QueueOverflow:
		return []refPerfettoEvent{{
			Name: fmt.Sprintf("%s %s", string(e.Kind), e.Queue),
			Ph:   "i", Cat: "stall", S: "t",
			Ts: e.Cycle, Pid: pidSMX, Tid: e.SMX,
			Args: map[string]any{"child": e.Name, "parent": e.Parent},
		}}
	case SampleTaken:
		return refSampleCounters(e)
	}
	return nil
}

func refKernelSpan(e *Event, ph string) refPerfettoEvent {
	return refPerfettoEvent{
		Name: fmt.Sprintf("%s#%d", e.Name, e.Kernel),
		Ph:   ph, Cat: "kernel",
		Ts: e.Cycle, Pid: pidKernels, Tid: 0, ID: e.Kernel + 1,
		Args: map[string]any{"priority": e.Priority, "parent": e.Parent},
	}
}

func refSampleCounters(e *Event) []refPerfettoEvent {
	s := e.Sample
	if s == nil {
		return nil
	}
	counter := func(name string, args map[string]any) refPerfettoEvent {
		return refPerfettoEvent{Name: name, Ph: "C", Ts: e.Cycle,
			Pid: pidCounters, Tid: 0, Args: args}
	}
	occ := map[string]any{}
	for i, n := range s.SMXResident {
		occ[fmt.Sprintf("smx%02d", i)] = n
	}
	out := []refPerfettoEvent{
		counter("IPC", map[string]any{"ipc": s.IPC}),
		counter("cache hit rate", map[string]any{"l1": s.L1, "l2": s.L2}),
		counter("resident TBs", map[string]any{"tbs": s.ResidentTBs}),
		counter("live kernels", map[string]any{"kernels": s.LiveKernels}),
		counter("launch queues", map[string]any{
			"pending": s.PendingArrivals, "kmu": s.KMUQueued,
			"kdu": s.KDUUsed, "agg": s.AggEntries,
		}),
		counter("TBs dispatched", map[string]any{"tbs": s.TBsDispatched}),
		counter("stall cycles", map[string]any{
			"mem": s.MemStalls, "launch": s.LaunchStalls,
		}),
		counter("L1 parent-child share", map[string]any{"share": s.L1ParentChild}),
	}
	if len(occ) > 0 {
		out = append(out, counter("SMX occupancy", occ))
	}
	return out
}

// refWriteFlightPerfetto renders a flight as Chrome trace_event JSON.
func refWriteFlightPerfetto(w io.Writer, f *telemetry.Flight) error {
	spans := f.Spans()
	begin := f.Begin()
	trackPid := map[string]int{}
	names := make([]string, 0, 4)
	for i := range spans {
		if _, ok := trackPid[spans[i].Track]; !ok {
			trackPid[spans[i].Track] = 0
			names = append(names, spans[i].Track)
		}
	}
	sort.Strings(names)
	out := make([]refPerfettoEvent, 0, len(spans)+len(names))
	for i, n := range names {
		trackPid[n] = i + 1
		out = append(out, refMeta("process_name", i+1, 0, n))
	}
	horizon := begin
	for i := range spans {
		if spans[i].End.After(horizon) {
			horizon = spans[i].End
		}
		if spans[i].Start.After(horizon) {
			horizon = spans[i].Start
		}
	}
	ts := func(t time.Time) uint64 {
		if d := t.Sub(begin); d > 0 {
			return uint64(d / time.Microsecond)
		}
		return 0
	}
	ordered := append([]telemetry.Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := &ordered[i], &ordered[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Name < b.Name
	})
	for i := range ordered {
		sp := &ordered[i]
		pid := trackPid[sp.Track]
		var args map[string]any
		if len(sp.Attrs) > 0 {
			args = make(map[string]any, len(sp.Attrs))
			for k, v := range sp.Attrs {
				args[k] = v
			}
		}
		if sp.Instant {
			out = append(out, refPerfettoEvent{
				Name: sp.Name, Ph: "i", Cat: "flight", S: "p",
				Ts: ts(sp.Start), Pid: pid, Tid: 0, Args: args,
			})
			continue
		}
		end := sp.End
		if end.IsZero() {
			end = horizon
		}
		dur := ts(end) - ts(sp.Start)
		if dur == 0 {
			dur = 1
		}
		out = append(out, refPerfettoEvent{
			Name: sp.Name, Ph: "X", Cat: "flight",
			Ts: ts(sp.Start), Dur: dur, Pid: pid, Tid: 0, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(refPerfettoTrace{TraceEvents: out})
}
