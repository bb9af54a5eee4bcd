package serve

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"laperm/internal/exp"
	"laperm/internal/faults"
	"laperm/internal/gpu"
	"laperm/internal/spec"
	"laperm/internal/telemetry"
)

// State is a job's (or sweep's) position in its lifecycle.
type State string

// Job states, in lifecycle order. A job is terminal in StateDone or
// StateFailed; failed runs are never cached, so resubmitting the same spec
// retries them.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Error kinds, mapping the engine's structured error taxonomy onto stable
// wire strings.
const (
	KindDeadlock   = "deadlock"
	KindInvariant  = "invariant"
	KindCycleLimit = "cycle-limit"
	KindDeadline   = "deadline"
	KindCanceled   = "canceled"
	KindPanic      = "panic"
	KindTransient  = "transient"
	KindError      = "error"
)

// classifyErr maps a run error onto its wire kind.
func classifyErr(err error) string {
	var (
		de  *gpu.DeadlockError
		ie  *gpu.InvariantError
		cle *gpu.CycleLimitError
		ce  *gpu.CanceledError
		pe  *exp.PanicError
	)
	switch {
	case faults.IsInjected(err):
		return KindTransient
	case errors.As(err, &de):
		return KindDeadlock
	case errors.As(err, &ie):
		return KindInvariant
	case errors.As(err, &cle):
		return KindCycleLimit
	case errors.As(err, &ce):
		if errors.Is(err, context.DeadlineExceeded) {
			return KindDeadline
		}
		return KindCanceled
	case errors.As(err, &pe):
		return KindPanic
	case errors.Is(err, context.DeadlineExceeded):
		return KindDeadline
	case errors.Is(err, context.Canceled):
		return KindCanceled
	}
	return KindError
}

// retryableKind reports whether a failure of this kind may succeed on a
// clean re-execution. Injected transients and recovered panics are worker
// flakiness; deadlocks, invariant violations, cycle/deadline overruns, and
// cancellations are deterministic properties of the run (or of the caller)
// and retrying them only burns cycles.
func retryableKind(kind string) bool {
	return kind == KindTransient || kind == KindPanic
}

// Job is one submitted run, keyed by its spec hash. All mutable fields are
// guarded by the embedded hub's mutex (promoted as j.mu); subscribers
// receive Events until the job reaches a terminal state, at which point
// their channels are closed.
type Job struct {
	// ID is the RunSpec content hash — run ID, coalescing key, and cache
	// key are all the same string.
	ID string
	// Spec is the normalized submitted spec.
	Spec spec.RunSpec

	// flow is the fair-share flow the job was queued on: its tenant plus
	// the sweep that first scheduled it ("" for direct submissions).
	flow flowKey

	// flight is the job's flight recorder: wall-clock spans from submit to
	// terminal state, served at /v1/runs/{id}/trace (from the server's ring
	// of terminal flights once the job has no record). Set once, before the
	// job is registered; every telemetry field here is nil-safe.
	flight *telemetry.Flight
	// queueEnd closes the flight's "queue" span when dispatch claims the
	// job; enqueuedAt feeds the queue-wait histogram.
	queueEnd   func()
	enqueuedAt time.Time

	hub
	state   State
	errMsg  string
	errKind string
	// singleton records that at least one direct /v1/runs submission wants
	// this job; owners records the sweeps sharing it. A job with singleton
	// set or more than one owner is "shared": sweep cancellation must not
	// release it.
	singleton bool
	owners    map[string]struct{}
	// onTerminal hooks run exactly once, after the terminal transition,
	// outside the job lock — sweeps use them for cell accounting.
	onTerminal []func(*Job)
	coalesced  int64
	retries    int64
}

func newJob(id string, sp spec.RunSpec) *Job {
	return &Job{ID: id, Spec: sp, state: StateQueued, hub: newHub()}
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) terminalLocked() bool { return j.state == StateDone || j.state == StateFailed }

// claim records a direct submission's claim on the job — it is no longer
// exclusively owned by sweeps, so no sweep cancellation may release it —
// counting it as coalesced when it attached to the job in flight.
func (j *Job) claim(coalesced bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.singleton = true
	if coalesced {
		j.coalesced++
	}
}

// addOwner records a sweep's claim on the job and reports whether the job
// was already claimed by a different sweep or a direct submission —
// i.e. whether this attachment is a cross-request dedupe.
func (j *Job) addOwner(sweepID string) (shared bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	shared = j.singleton || len(j.owners) > 0
	if j.owners == nil {
		j.owners = make(map[string]struct{})
	}
	j.owners[sweepID] = struct{}{}
	return shared
}

// sharedBeyond reports whether anyone other than the given sweep holds a
// claim on the job — the test that gates cancellation.
func (j *Job) sharedBeyond(sweepID string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.singleton {
		return true
	}
	for owner := range j.owners {
		if owner != sweepID {
			return true
		}
	}
	return false
}

// addTerminalHook registers fn to run once the job reaches a terminal
// state, outside the job lock. If the job is already terminal, fn runs
// immediately (on this goroutine).
func (j *Job) addTerminalHook(fn func(*Job)) {
	j.mu.Lock()
	if j.terminalLocked() {
		j.mu.Unlock()
		fn(j)
		return
	}
	j.onTerminal = append(j.onTerminal, fn)
	j.mu.Unlock()
}

// setRunning transitions queued -> running and notifies subscribers.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.publishLocked(Event{Type: "state", Data: j.viewLocked()})
	j.mu.Unlock()
}

// end moves the job to its terminal state — failed with kind and err, or
// done when err is nil — notifies subscribers, closes their channels, and
// fires the terminal hooks outside the lock.
func (j *Job) end(kind string, err error) {
	j.mu.Lock()
	j.state = StateDone
	if err != nil {
		j.state, j.errKind, j.errMsg = StateFailed, kind, err.Error()
	}
	j.publishLocked(Event{Type: "state", Data: j.viewLocked()})
	j.closeSubsLocked()
	hooks := j.onTerminal
	j.onTerminal = nil
	j.mu.Unlock()
	for _, fn := range hooks {
		fn(j)
	}
}

// noteRetry counts one transparent re-execution after a transient failure.
func (j *Job) noteRetry() {
	j.mu.Lock()
	j.retries++
	j.mu.Unlock()
}

// subscribeSince registers an event channel, replaying history after
// afterID (0 means a fresh attach: no replay, snapshot only). See
// hub.subscribeLocked for the exactly-once contract.
func (j *Job) subscribeSince(afterID uint64) subscription {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.subscribeLocked(afterID, j.viewLocked(), j.terminalLocked())
}

// publish delivers an event to all subscribers, dropping it for any whose
// buffer is full — a slow SSE consumer must not stall the simulation.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	j.publishLocked(ev)
	j.mu.Unlock()
}

// jobView is the wire representation of a run returned by the submit and
// status endpoints and carried in "state" SSE events: a job's own view
// (viewLocked) while it has a record, a done run's from its cache entry
// (doneRunView) after.
type jobView struct {
	ID        string          `json:"id"`
	State     State           `json:"state"`
	Cached    bool            `json:"cached"`
	Coalesced int64           `json:"coalesced,omitempty"`
	Retries   int64           `json:"retries,omitempty"`
	Error     string          `json:"error,omitempty"`
	ErrorKind string          `json:"error_kind,omitempty"`
	Spec      spec.RunSpec    `json:"spec"`
	Result    json.RawMessage `json:"result,omitempty"`
	Artifacts []string        `json:"artifacts,omitempty"`
}

// viewLocked builds the job's wire view: no result, which a done run's
// view takes from the cache.
func (j *Job) viewLocked() jobView {
	return jobView{
		ID:        j.ID,
		State:     j.state,
		Coalesced: j.coalesced,
		Retries:   j.retries,
		Error:     j.errMsg,
		ErrorKind: j.errKind,
		Spec:      j.Spec,
	}
}

// view is viewLocked under the lock.
func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}
