package trace

import (
	"cmp"
	"io"
	"slices"
	"time"

	"laperm/internal/telemetry"
)

// Flight export: a telemetry flight (the service's per-job wall-clock span
// recorder) rendered in the same Chrome trace_event JSON the simulation
// Perfetto export uses, so ui.perfetto.dev opens both. Where the simulation
// trace maps one cycle to one microsecond, a flight is real time: one
// microsecond of wall clock per trace microsecond, anchored at the flight's
// begin time.
//
// Each span track becomes its own process (sorted by name, pids from 1), so
// the service-level lifecycle ("job": queued, run, attempts, artifacts) and
// the engine-internal phases ("engine") land on separate rows. Closed spans
// are complete ("X") slices, instants are instant ("i") events, and a span
// still open at render time is closed at the latest timestamp in the
// flight, so partial traces of in-flight jobs remain loadable.

// WriteFlightPerfetto renders a flight as Chrome trace_event JSON.
func WriteFlightPerfetto(w io.Writer, f *telemetry.Flight) error {
	spans := f.Spans()
	begin := f.Begin()

	// Track names, sorted, one pid per track.
	trackPid := map[string]int{}
	names := make([]string, 0, 4)
	for i := range spans {
		if _, ok := trackPid[spans[i].Track]; !ok {
			trackPid[spans[i].Track] = 0
			names = append(names, spans[i].Track)
		}
	}
	slices.Sort(names)
	j := newJSONBuf(w)
	j.raw(`{"traceEvents":[`)
	for i, n := range names {
		trackPid[n] = i + 1
		j.meta("process_name", i+1, 0, n, -1)
	}

	// A span still open when snapshotted ends at the flight's horizon: the
	// latest end (or start) seen anywhere.
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
	// Sort for byte-stable output: by start, then track, then name.
	slices.SortStableFunc(spans, func(a, b telemetry.Span) int {
		if c := a.Start.Compare(b.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Track, b.Track); c != 0 {
			return c
		}
		return cmp.Compare(a.Name, b.Name)
	})
	for i := range spans {
		sp := &spans[i]
		j.open()
		j.escaped(sp.Name)
		if sp.Instant {
			j.fields("i", "flight", ts(sp.Start), 0, trackPid[sp.Track], 0, 0, "p")
		} else {
			end := sp.End
			if end.IsZero() {
				end = horizon
			}
			dur := ts(end) - ts(sp.Start)
			if dur == 0 {
				dur = 1 // zero-length slices are invisible in the UI
			}
			j.fields("X", "flight", ts(sp.Start), dur, trackPid[sp.Track], 0, 0, "")
		}
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			j.raw(`,"args":{`)
			for n, k := range keys {
				if n > 0 {
					j.raw(",")
				}
				j.str(k)
				j.raw(":")
				j.str(sp.Attrs[k])
			}
			j.raw("}")
		}
		j.raw("}")
	}
	j.raw("]}\n")
	j.flush(true)
	return j.werr
}
