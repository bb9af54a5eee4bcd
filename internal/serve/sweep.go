package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/spec"
	"laperm/internal/telemetry"
)

// Artifact names of one completed sweep, served under
// /v1/sweeps/{id}/artifacts/. ResultArtifact (result.json, the sweep
// summary every cache entry holds) is shared with runs.
const (
	SweepSpecArtifact  = "sweep.json"
	SweepCellsArtifact = "cells.csv"
)

// SweepArtifactNames lists every artifact a completed sweep exposes.
var SweepArtifactNames = []string{SweepSpecArtifact, SweepCellsArtifact, ResultArtifact}

// Cell sources: how the sweep obtained each cell.
const (
	// CellSourceRun is a fresh execution this sweep scheduled.
	CellSourceRun = "run"
	// CellSourceDedupe attached to work another request already owns — a
	// concurrent sweep's cell or an in-flight singleton run.
	CellSourceDedupe = "dedupe"
	// CellSourceCache was answered from the cache without executing
	// anything.
	CellSourceCache = "cache"
)

// sweepCell is one expanded cell's bookkeeping inside a Sweep, guarded by
// the sweep's lock.
type sweepCell struct {
	index  int
	runID  string
	values []string
	source string
	state  State
	errKind,
	errMsg string
	job *Job // the job the cell resolved to, until the cell settles
}

// Sweep is one submitted parameter sweep, keyed by its SweepSpec hash,
// while it runs or once it has failed; a done sweep is its cache entry. All
// mutable fields are guarded by the embedded hub's mutex (promoted as
// sw.mu).
type Sweep struct {
	// ID is the SweepSpec content hash — sweep ID, coalescing key, and the
	// cache key of the sweep-level artifacts.
	ID string
	// Spec is the normalized submitted sweep.
	Spec spec.SweepSpec
	// Axes caches the axis field names in order (the cells.csv header).
	Axes []string

	flight *telemetry.Flight

	hub
	state     State
	errMsg    string
	errKind   string
	canceled  bool
	coalesced int64
	cells     []*sweepCell
	remaining int // cells not yet terminal
	failed    int // cells that reached failed
	deduped   int // cells attached to work another request owns
	fromCache int // cells answered without executing
	scheduled int // cells freshly scheduled by this sweep
}

func newSweep(id string, sp spec.SweepSpec) *Sweep {
	axes := make([]string, len(sp.Axes))
	for i, ax := range sp.Axes {
		axes[i] = ax.Field
	}
	return &Sweep{ID: id, Spec: sp, Axes: axes, state: StateRunning, hub: newHub()}
}

// State returns the current state.
func (sw *Sweep) State() State {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.state
}

func (sw *Sweep) terminalLocked() bool { return sw.state == StateDone || sw.state == StateFailed }

func (sw *Sweep) noteCoalesced() {
	sw.mu.Lock()
	sw.coalesced++
	sw.mu.Unlock()
}

// sweepCellView is one row of the sweep's wire cell table.
type sweepCellView struct {
	Index     int      `json:"index"`
	RunID     string   `json:"run_id"`
	Values    []string `json:"values"`
	Source    string   `json:"source"`
	State     State    `json:"state"`
	Error     string   `json:"error,omitempty"`
	ErrorKind string   `json:"error_kind,omitempty"`
}

// sweepView is the wire representation of a sweep returned by the submit
// and status endpoints and carried in "state" SSE events (without the cell
// table — state events stay small; GET /v1/sweeps/{id} has it). A done
// sweep's view is its cache entry's result.json summary (cachedSweep).
type sweepView struct {
	ID        string          `json:"id"`
	State     State           `json:"state"`
	Tenant    string          `json:"tenant"`
	Priority  int             `json:"priority"`
	Cached    bool            `json:"cached"`
	Canceled  bool            `json:"canceled,omitempty"`
	Coalesced int64           `json:"coalesced,omitempty"`
	Axes      []string        `json:"axes"`
	Cells     int             `json:"cells"`
	Done      int             `json:"done"`
	Failed    int             `json:"failed,omitempty"`
	Deduped   int             `json:"deduped"`
	FromCache int             `json:"served_from_cache"`
	Scheduled int             `json:"scheduled"`
	Error     string          `json:"error,omitempty"`
	ErrorKind string          `json:"error_kind,omitempty"`
	Spec      spec.SweepSpec  `json:"spec"`
	CellTable []sweepCellView `json:"cell_table,omitempty"`
	Artifacts []string        `json:"artifacts,omitempty"`
}

func (sw *Sweep) viewLocked(withCells bool) sweepView {
	v := sweepView{
		ID:        sw.ID,
		State:     sw.state,
		Tenant:    sw.Spec.Tenant,
		Priority:  sw.Spec.Priority,
		Canceled:  sw.canceled,
		Coalesced: sw.coalesced,
		Axes:      sw.Axes,
		Cells:     len(sw.cells),
		Done:      len(sw.cells) - sw.remaining - sw.failed,
		Failed:    sw.failed,
		Deduped:   sw.deduped,
		FromCache: sw.fromCache,
		Scheduled: sw.scheduled,
		Error:     sw.errMsg,
		ErrorKind: sw.errKind,
		Spec:      sw.Spec,
	}
	if sw.state == StateDone {
		v.Artifacts = SweepArtifactNames
	}
	if withCells {
		v.CellTable = make([]sweepCellView, len(sw.cells))
		for i, c := range sw.cells {
			v.CellTable[i] = sweepCellView{
				Index: c.index, RunID: c.runID, Values: c.values,
				Source: c.source, State: c.state,
				Error: c.errMsg, ErrorKind: c.errKind,
			}
		}
	}
	return v
}

func (sw *Sweep) view(withCells bool) sweepView {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.viewLocked(withCells)
}

// subscribeSince registers an event channel on the sweep's stream; see
// hub.subscribeLocked for the exactly-once contract.
func (sw *Sweep) subscribeSince(afterID uint64) subscription {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.subscribeLocked(afterID, sw.viewLocked(false), sw.terminalLocked())
}

// handleSweepSubmit accepts a SweepSpec, expands it server-side, resolves
// every cell by content hash — attaching to in-flight work, answering from
// the cache, or scheduling a fresh execution on the sweep's fair-share flow
// — and returns the sweep view (202 for newly scheduled sweeps, 200 for
// coalesced or cached ones).
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		badRequest(w, fmt.Errorf("serve: read request: %w", err))
		return
	}
	sp, err := spec.ParseSweep(body)
	if err != nil {
		badRequest(w, err)
		return
	}
	// The server's cell bound, then the spec's inside Expand, are checked
	// from the value counts alone, before any per-value work.
	if max := s.cfg.MaxSweepCells; max > 0 && sp.CellCount() > max {
		badRequest(w, fmt.Errorf("serve: sweep expands to more than %d cells, the most this server accepts", max))
		return
	}
	cells, err := sp.Expand()
	if err != nil {
		badRequest(w, err)
		return
	}
	sp = sp.Normalized()
	id, err := sp.Hash()
	if err != nil {
		badRequest(w, err)
		return
	}
	s.tel.sweepSubmissions.Inc()

	// Resubmitting a running sweep coalesces and a done one is answered
	// from its cache entry, exactly like runs; a failed record is
	// superseded below. These answers bypass the rate limiter — they
	// schedule nothing.
	s.mu.Lock()
	if sw := s.sweeps.m[id]; sw != nil && sw.State() == StateRunning {
		sw.noteCoalesced()
		s.tel.sweepsCoalesced.Inc()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, sw.view(false))
		return
	}
	if v, err := s.cachedSweep(id); err == nil {
		s.mu.Unlock()
		v.CellTable = nil
		writeJSON(w, http.StatusOK, v)
		return
	}
	if s.draining {
		s.mu.Unlock()
		draining(w, errors.New("serve: draining, not accepting new sweeps"))
		return
	}
	// The rate limiter gates only sweeps that schedule new work; it sits
	// after the coalesce and cache paths so an idempotent retry of an
	// already-accepted sweep is never throttled.
	if ok, after := s.limits.Allow(sp.Tenant); !ok {
		s.mu.Unlock()
		s.tel.sweepsThrottled.Inc()
		rateLimited(w, after,
			fmt.Errorf("serve: tenant %q over the sweep rate limit, retry later", sp.Tenant))
		return
	}

	sw := newSweep(id, sp)
	sw.sseEvents, sw.sseDropped = s.tel.sseEvents, s.tel.sseDropped
	sw.flight = telemetry.NewFlight(id)
	sw.flight.Instant("sweep", "submit", map[string]string{
		"tenant": sp.Tenant, "cells": fmt.Sprint(len(cells)),
	})
	scheduleEnd := sw.flight.Start("sweep", "schedule")
	sw.cells = make([]*sweepCell, len(cells))
	sw.remaining = len(cells)
	for i, c := range cells {
		sw.cells[i] = &sweepCell{index: c.Index, runID: c.Hash, values: c.Values, state: StateQueued}
	}
	s.sweeps.m[id] = sw
	s.tel.sweepsActive.Inc()
	s.tel.sweepCellsExpanded.Add(uint64(len(cells)))
	s.log.Info("sweep submitted", "sweep", id, "tenant", sp.Tenant, "cells", len(cells))

	// Resolve every cell under s.mu, each on this sweep's fair-share flow:
	// nothing can race a concurrent sweep's resolution of the same run IDs.
	// Cells settle after s.mu is released: the last finalizes the sweep.
	var settle []func()
	flow := flowKey{tenant: sp.Tenant, sweep: id}
	for i, c := range cells {
		cell := sw.cells[i]
		j, fresh, result, err := s.resolveLocked(c.Hash, c.Spec, flow, sp.Priority)
		switch {
		case err != nil:
			// Unreachable by construction (closeQueue also takes s.mu and
			// sweep flows have no depth bound), but never let a cell
			// silently wedge the sweep if the invariant ever breaks.
			failed := jobView{State: StateFailed, ErrorKind: KindError, Error: err.Error()}
			settle = append(settle, func() { s.cellDone(sw, cell, failed, nil) })
			continue
		case j == nil:
			cell.source = CellSourceCache
			sw.fromCache++
			s.tel.sweepCellsCached.Inc()
			settle = append(settle, func() { s.cellDone(sw, cell, jobView{State: StateDone}, result) })
			continue
		}
		cell.job = j
		shared := j.addOwner(id)
		if fresh {
			cell.source = CellSourceRun
			sw.scheduled++
			s.tel.sweepCellsScheduled.Inc()
		} else {
			cell.source = CellSourceDedupe
			sw.deduped++
			if shared {
				s.tel.sweepCellsDeduped.Inc()
			}
		}
		settle = append(settle, func() {
			j.addTerminalHook(func(j *Job) { s.cellDone(sw, cell, j.view(), nil) })
		})
	}
	scheduleEnd()
	s.mu.Unlock()
	for _, f := range settle {
		f()
	}
	writeJSON(w, http.StatusAccepted, sw.view(false))
}

// cellDone records one cell's terminal outcome (the state and error of
// out) on its sweep, publishes the "cell" SSE event, and finalizes the
// sweep when the last cell lands. Runs after resolution (cached cells,
// with their verified result) or as a job terminal hook, never under s.mu
// — but for a canceled sweep's released jobs, whose cells are settled
// already.
func (s *Server) cellDone(sw *Sweep, cell *sweepCell, out jobView, result []byte) {
	data := map[string]any{
		"index":  cell.index,
		"run_id": cell.runID,
		"values": cell.values,
		"source": cell.source,
		"state":  out.State,
	}
	if out.State == StateDone {
		// Best-effort partial result: headline numbers straight from the
		// cached result so sweep watchers can plot without fetching every
		// cell artifact.
		if result == nil {
			result, _ = s.cache.ReadArtifact(cell.runID, ResultArtifact)
		}
		var head struct {
			Cycles uint64
			IPC    float64
		}
		if json.Unmarshal(result, &head) == nil {
			data["cycles"] = head.Cycles
			data["ipc"] = head.IPC
		}
	} else {
		data["error"] = out.Error
		data["error_kind"] = out.ErrorKind
	}

	sw.mu.Lock()
	if cell.state == StateDone || cell.state == StateFailed {
		// Already settled (a canceled sweep settles its cells eagerly).
		sw.mu.Unlock()
		return
	}
	cell.state = out.State
	cell.errMsg, cell.errKind = out.Error, out.ErrorKind
	cell.job = nil
	sw.remaining--
	if out.State == StateFailed {
		sw.failed++
	}
	sw.publishLocked(Event{Type: "cell", Data: data})
	last := sw.remaining == 0 && !sw.terminalLocked()
	sw.mu.Unlock()
	if last {
		s.finalizeSweep(sw)
	}
}

// finalizeSweep transitions a fully-settled sweep to its terminal state,
// writing the sweep-level artifacts on full success, and retires its
// record: a done sweep's cache entry answers for it. Called without s.mu.
func (s *Server) finalizeSweep(sw *Sweep) {
	sw.mu.Lock()
	if sw.terminalLocked() {
		sw.mu.Unlock()
		return
	}
	failed := sw.failed
	cells := sw.cells
	sw.mu.Unlock()

	var finalErr error
	if failed > 0 {
		finalErr = fmt.Errorf("serve: %d of %d cells failed", failed, len(cells))
	} else {
		artEnd := sw.flight.Start("sweep", "artifacts")
		finalErr = s.writeSweepArtifacts(sw, cells)
		artEnd()
	}

	sw.mu.Lock()
	if finalErr != nil {
		sw.endLocked(StateFailed, KindError, finalErr.Error())
	} else {
		sw.endLocked(StateDone, "", "")
	}
	sw.mu.Unlock()

	s.tel.sweepsActive.Dec()
	if finalErr != nil {
		s.tel.sweepsFailed.Inc()
		sw.flight.Instant("sweep", "fail", map[string]string{"error": finalErr.Error()})
		s.log.Info("sweep failed", "sweep", sw.ID, "error", finalErr.Error())
	} else {
		s.tel.sweepsDone.Inc()
		s.log.Info("sweep done", "sweep", sw.ID)
	}
	s.flights.Add(sw.flight)
	s.mu.Lock()
	s.sweeps.retire(sw.ID, sw)
	s.mu.Unlock()
}

// writeSweepArtifacts assembles and commits the sweep's cache entry: the
// canonical sweep spec, the aggregated cells.csv (via the exp writer, so it
// is byte-identical to an in-process RunMatrix export of the same axes),
// and the result.json summary.
func (s *Server) writeSweepArtifacts(sw *Sweep, cells []*sweepCell) error {
	canon, err := sw.Spec.Canonical()
	if err != nil {
		return err
	}
	rows := make([]exp.CellRow, len(cells))
	for i, c := range cells {
		raw, err := s.cache.ReadArtifact(c.runID, ResultArtifact)
		if err != nil {
			return fmt.Errorf("serve: sweep cell %d result: %w", c.index, err)
		}
		var res gpu.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Errorf("serve: sweep cell %d result: %w", c.index, err)
		}
		rows[i] = exp.CellRow{ID: c.runID, Values: c.values, Result: &res}
	}
	summary := sw.view(true)
	summary.State = StateDone
	summary.Artifacts = SweepArtifactNames
	for i := range summary.CellTable {
		summary.CellTable[i].State = StateDone
	}
	return s.cache.Put(sw.ID, []Artifact{
		{Name: SweepSpecArtifact, Write: func(w io.Writer) error {
			_, err := w.Write(append(canon, '\n'))
			return err
		}},
		{Name: SweepCellsArtifact, Write: func(w io.Writer) error {
			return exp.WriteCellsCSV(sw.Axes, rows, w)
		}},
		{Name: ResultArtifact, Write: func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(summary)
		}},
	})
}

// cachedSweep answers a done sweep from its cache entry: the verified
// result.json summary, cell table included. A run's entry is a miss.
func (s *Server) cachedSweep(id string) (sweepView, error) {
	raw, err := s.cache.ReadArtifact(id, ResultArtifact)
	if err != nil {
		return sweepView{}, err
	}
	var v sweepView
	if err := json.Unmarshal(raw, &v); err != nil || v.ID != id {
		return sweepView{}, fmt.Errorf("serve: cache entry %q is not a sweep", id)
	}
	v.Cached = true
	return v, nil
}

// lookupSweep resolves id for the read-only endpoints: its running or
// failed sweep with that sweep's view or, for a done sweep, a nil sweep
// with its cache entry's view. A miss comes with the error explaining it.
func (s *Server) lookupSweep(id string, withCells bool) (*Sweep, sweepView, error) {
	s.mu.Lock()
	sw := s.sweeps.m[id]
	s.mu.Unlock()
	if sw != nil {
		if v := sw.view(withCells); v.State != StateDone {
			return sw, v, nil
		}
	}
	v, err := s.cachedSweep(id)
	if !withCells {
		v.CellTable = nil
	}
	return nil, v, err
}

// respondSweep writes id's sweep view (see lookupSweep).
func (s *Server) respondSweep(w http.ResponseWriter, id string, withCells bool) {
	_, v, err := s.lookupSweep(id, withCells)
	if err != nil {
		missing(w, err, fmt.Errorf("serve: no sweep %q", id))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleSweepStatus serves GET /v1/sweeps/{id}: full status with the cell
// table and dedupe/cache-hit counts.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	s.respondSweep(w, r.PathValue("id"), true)
}

// handleSweepEvents streams a sweep's lifecycle over SSE: a "state"
// snapshot, then per-cell "cell" completion events and the terminal "state"
// transition, with the same monotonic-id / Last-Event-ID resume contract as
// run streams (a done sweep streams its terminal snapshot alone).
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, v, err := s.lookupSweep(id, false)
	switch {
	case err != nil:
		missing(w, err, fmt.Errorf("serve: no sweep %q", id))
	case sw != nil:
		s.streamSSE(w, r, sw.subscribeSince)
	default:
		s.streamSSE(w, r, func(afterID uint64) subscription { return doneSubscription(v, afterID) })
	}
}

// handleSweepCancel implements POST /v1/sweeps/{id}/cancel: queued cells
// owned only by this sweep are released (removed from the fair queue and
// failed with kind "canceled"); cells shared with other sweeps or direct
// submissions, and cells already running, are left to finish — their
// results stay cacheable and their other owners unaffected. A sweep that is
// already terminal answers with its view, as GET does.
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps.m[id]
	var release []*Job
	if sw == nil || !sw.cancel(s.fq, &release) {
		s.mu.Unlock()
		s.respondSweep(w, id, false)
		return
	}
	// The released jobs' terminal hooks find their cells already settled.
	for _, j := range release {
		s.tel.queueDepth.Dec()
		s.markFailed(j, KindCanceled, errors.New("serve: sweep canceled"))
		s.jobs.retire(j.ID, j)
	}
	s.tel.sweepsActive.Dec()
	s.tel.sweepsCanceled.Inc()
	sw.flight.Instant("sweep", "cancel", map[string]string{
		"released": fmt.Sprint(len(release)),
	})
	s.flights.Add(sw.flight)
	s.sweeps.retire(id, sw)
	s.log.Info("sweep canceled", "sweep", id, "released", len(release))
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, sw.view(false))
}

// cancel fails a running sweep, settling its open cells as canceled, and
// appends to release the queued jobs only it owned, removed from q for the
// caller to fail under the same s.mu, so no submission attaches to them.
// It reports false, changing nothing, once the sweep is terminal or every
// cell has settled (it is being finalized).
func (sw *Sweep) cancel(q *fairQueue, release *[]*Job) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.terminalLocked() || sw.remaining == 0 {
		return false
	}
	sw.canceled = true
	for _, cell := range sw.cells {
		if cell.state != StateQueued && cell.state != StateRunning {
			continue
		}
		// A running or shared job finishes on its own, and so does a cell
		// not settled yet (cached, with no job); either finds it settled.
		cell.errMsg = "serve: sweep canceled (cell left to finish)"
		if j := cell.job; j != nil && j.State() == StateQueued && !j.sharedBeyond(sw.ID) && q.Remove(j) {
			*release = append(*release, j)
			cell.errMsg = "serve: sweep canceled"
		}
		cell.state, cell.errKind, cell.job = StateFailed, KindCanceled, nil
		sw.remaining--
		sw.failed++
	}
	sw.endLocked(StateFailed, KindCanceled, "serve: sweep canceled")
	return true
}

// endLocked moves the sweep to its terminal state, publishes it, and
// closes the subscribers' channels.
func (sw *Sweep) endLocked(state State, errKind, errMsg string) {
	sw.state, sw.errKind, sw.errMsg = state, errKind, errMsg
	sw.publishLocked(Event{Type: "state", Data: sw.viewLocked(false)})
	sw.closeSubsLocked()
}
