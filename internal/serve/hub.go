package serve

import (
	"sync"

	"laperm/internal/telemetry"
)

// Event is one SSE payload: a state transition, a retry notice, a batch
// progress tick, a timeline sample from a running simulation, or a sweep's
// per-cell completion notice. ID is the stream-scoped monotonic SSE id;
// clients resume a dropped stream by replaying everything after their
// Last-Event-ID.
type Event struct {
	ID   uint64
	Type string // "state", "retry", "progress", "sample", "cell"
	Data any
}

// eventHistoryCap bounds each stream's replay ring. A tiny run emits a
// handful of state transitions plus its timeline samples; 1024 comfortably
// covers a reconnect window without letting a sample-heavy run (or a large
// sweep's cell feed) grow without bound.
const eventHistoryCap = 1024

// hub is the publish/subscribe core shared by jobs and sweeps: monotonic
// event ids, a bounded replay ring for Last-Event-ID resumes, and
// drop-on-full delivery so a slow SSE consumer never stalls the publisher.
// Embedding types guard their own state with hub.mu too — one lock per
// stream, promoted as (e.g.) j.mu.
type hub struct {
	mu      sync.Mutex
	subs    map[chan Event]struct{}
	lastID  uint64  // last SSE event id assigned
	history []Event // replay ring for Last-Event-ID resumes

	// sseEvents / sseDropped, set at creation, count event publishes and
	// drops caused by lagging subscribers. Nil-safe (telemetry.Counter
	// methods accept nil receivers).
	sseEvents  *telemetry.Counter
	sseDropped *telemetry.Counter
}

func newHub() hub {
	return hub{subs: make(map[chan Event]struct{})}
}

// subscription is one SSE consumer's attachment to a stream: the replay
// backlog owed to it, its live channel, and the snapshot to open with.
type subscription struct {
	// backlog holds already-published events with ID > the subscriber's
	// Last-Event-ID, replayed before any live event.
	backlog []Event
	// ch delivers live events; closed when the stream is (or was already)
	// terminal.
	ch chan Event
	// snap is the stream's wire view at subscribe time (jobView or
	// sweepView) and lastID the newest event id assigned so far (0 if
	// none); ended says the stream was terminal then.
	snap   any
	lastID uint64
	ended  bool
	// cancel unsubscribes.
	cancel func()
}

// subscribeLocked registers an event channel, replaying history after
// afterID (0 means a fresh attach: no replay, snapshot only). Callers hold
// h.mu and pass the wire snapshot they built under that same acquisition,
// so a subscriber sees every event exactly once: in the backlog, or live,
// never both and never neither. If the stream is already terminal the
// channel comes back closed: backlog plus snapshot is all there is.
func (h *hub) subscribeLocked(afterID uint64, snap any, terminal bool) subscription {
	var backlog []Event
	if afterID > 0 {
		for _, ev := range h.history {
			if ev.ID > afterID {
				backlog = append(backlog, ev)
			}
		}
	}
	if terminal {
		sub := doneSubscription(snap, h.lastID)
		sub.backlog = backlog
		return sub
	}
	ch := make(chan Event, 64)
	h.subs[ch] = struct{}{}
	return subscription{backlog: backlog, ch: ch, snap: snap, lastID: h.lastID, cancel: func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
	}}
}

// doneSubscription is an ended stream's subscription: snap at lastID and
// a closed channel, no backlog. A done run or sweep has no record, so its
// subscribers get its cache entry's view at their own Last-Event-ID.
func doneSubscription(snap any, lastID uint64) subscription {
	ch := make(chan Event)
	close(ch)
	return subscription{ch: ch, snap: snap, lastID: lastID, ended: true, cancel: func() {}}
}

// publishLocked assigns the next event id, records the event in the replay
// ring, and delivers it to all subscribers, dropping it for any whose
// buffer is full.
func (h *hub) publishLocked(ev Event) {
	h.lastID++
	ev.ID = h.lastID
	if len(h.history) >= eventHistoryCap {
		// Drop the oldest half in one copy; reconnects older than the ring
		// fall back to the snapshot path.
		keep := h.history[len(h.history)-eventHistoryCap/2:]
		h.history = append(make([]Event, 0, eventHistoryCap), keep...)
	}
	h.history = append(h.history, ev)
	for ch := range h.subs {
		select {
		case ch <- ev:
			h.sseEvents.Inc()
		default:
			// A slow SSE consumer must not stall the publisher; the drop
			// is visible as subscriber lag in /metrics.
			h.sseDropped.Inc()
		}
	}
}

func (h *hub) closeSubsLocked() {
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}
