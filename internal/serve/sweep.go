package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/spec"
	"laperm/internal/telemetry"
)

// Artifact names of one completed sweep, served under
// /v1/sweeps/{id}/artifacts/. ResultArtifact (result.json, the sweep
// summary and the cache's completion marker) is shared with runs.
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
	// CellSourceCache was answered from a completed job or the disk cache
	// without executing anything.
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
	job *Job // the job the cell resolved to
}

// Sweep is one submitted parameter sweep, keyed by its SweepSpec hash. All
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
	cached    bool // sweep artifacts served from the disk cache
	canceled  bool
	coalesced int64
	cells     []*sweepCell
	remaining int // cells not yet terminal
	failed    int // cells that reached failed
	deduped   int // cells attached to work another request owns
	fromCache int // cells answered without executing
	scheduled int // cells freshly scheduled by this sweep
	doneAt    time.Time
}

func newSweep(id string, sp spec.SweepSpec) *Sweep {
	axes := make([]string, len(sp.Axes))
	for i, ax := range sp.Axes {
		axes[i] = ax.Field
	}
	return &Sweep{ID: id, Spec: sp, Axes: axes, state: StateRunning, hub: newHub()}
}

// newCachedSweep materializes a sweep for a disk-cache hit: born terminal,
// no cell table (the cell detail lives in the cached cells.csv).
func newCachedSweep(id string, sp spec.SweepSpec) *Sweep {
	sw := newSweep(id, sp)
	sw.state, sw.cached = StateDone, true
	return sw
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
// table — state events stay small; GET /v1/sweeps/{id} has it).
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
		Cached:    sw.cached,
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
	if sw.cached {
		// A disk-materialized sweep has no in-process cell records; its
		// counts live in the cached result.json.
		v.Cells = sw.Spec.CellCount()
		v.Done = v.Cells
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

	s.mu.Lock()
	prev := s.sweeps[id]
	sw, err := s.sweepLocked(id, func() (spec.SweepSpec, error) { return sp, nil })
	if err == nil && sw.State() != StateFailed {
		// Running, or done and verified on disk. Resubmitting a sweep this
		// process holds coalesces, exactly like runs. These answers bypass
		// the rate limiter — they schedule nothing.
		if sw == prev {
			sw.noteCoalesced()
			s.tel.sweepsCoalesced.Inc()
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, sw.view(false))
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

	sw = newSweep(id, sp)
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
	s.sweeps[id] = sw
	s.tel.sweepsActive.Inc()
	s.tel.sweepCellsExpanded.Add(uint64(len(cells)))
	s.log.Info("sweep submitted", "sweep", id, "tenant", sp.Tenant, "cells", len(cells))

	// Resolve every cell under s.mu, each on this sweep's fair-share flow:
	// nothing can race a concurrent sweep's resolution of the same run IDs.
	flow := flowKey{tenant: sp.Tenant, sweep: id}
	for i, c := range cells {
		cell := sw.cells[i]
		j, how, result, err := s.resolveLocked(c.Hash, c.Spec, flow, sp.Priority)
		if err != nil {
			// Unreachable by construction (closeQueue also takes s.mu and
			// sweep flows have no depth bound), but never let a cell
			// silently wedge the sweep if the invariant ever breaks.
			s.failJob(j, KindError, err)
		}
		cell.job = j
		shared := j.addOwner(id)
		switch how {
		case resolvedCached:
			cell.source = CellSourceCache
			sw.fromCache++
			s.tel.sweepCellsCached.Inc()
			s.cellDone(sw, cell, j, result)
			continue
		case resolvedAttach:
			cell.source = CellSourceDedupe
			sw.deduped++
			if shared {
				s.tel.sweepCellsDeduped.Inc()
			}
		case resolvedScheduled:
			cell.source = CellSourceRun
			sw.scheduled++
			s.tel.sweepCellsScheduled.Inc()
		}
		j.addTerminalHook(func(j *Job) { s.cellDone(sw, cell, j, nil) })
	}
	scheduleEnd()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, sw.view(false))
}

// cellDone records one cell's terminal outcome on its sweep, publishes the
// "cell" SSE event, and finalizes the sweep when the last cell lands. Runs
// either inline during resolution (cached cells, with their verified
// result) or as a job terminal hook on the dispatcher's goroutine.
func (s *Server) cellDone(sw *Sweep, cell *sweepCell, j *Job, result []byte) {
	state, errMsg, errKind, _, _ := j.snapshot()
	data := map[string]any{
		"index":  cell.index,
		"run_id": cell.runID,
		"values": cell.values,
		"source": cell.source,
		"state":  state,
	}
	if state == StateDone {
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
		data["error"] = errMsg
		data["error_kind"] = errKind
	}

	sw.mu.Lock()
	if cell.state == StateDone || cell.state == StateFailed {
		// Already settled (a canceled sweep settles its cells eagerly).
		sw.mu.Unlock()
		return
	}
	cell.state = state
	cell.errMsg, cell.errKind = errMsg, errKind
	sw.remaining--
	if state == StateFailed {
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
// writing the sweep-level artifacts on full success.
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
		sw.state = StateFailed
		sw.errKind = KindError
		if sw.canceled {
			sw.errKind = KindCanceled
		}
		sw.errMsg = finalErr.Error()
	} else {
		sw.state = StateDone
		sw.doneAt = time.Now()
	}
	view := sw.viewLocked(false)
	sw.publishLocked(Event{Type: "state", Data: view})
	sw.closeSubsLocked()
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
}

// writeSweepArtifacts assembles and commits the sweep's cache entry: the
// canonical sweep spec, the aggregated cells.csv (via the exp writer, so it
// is byte-identical to an in-process RunMatrix export of the same axes),
// and the result.json summary that doubles as the cache completion marker.
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

// sweepLocked resolves id to its standing sweep under the run rule
// (doneLocked): a running or failed record stands as is, a done one only
// while its result.json verifies on disk, and with no record a verified
// entry materializes a cached sweep whose spec load supplies. A nil sweep
// comes with the read error that explains the miss. Called with s.mu held.
func (s *Server) sweepLocked(id string, load func() (spec.SweepSpec, error)) (*Sweep, error) {
	if sw := s.sweeps[id]; sw != nil && sw.State() != StateDone {
		return sw, nil
	}
	sw, _, err := doneLocked(s.cache, s.sweeps, id, func() (*Sweep, error) {
		sp, err := load()
		if err != nil {
			return nil, err
		}
		sw := newCachedSweep(id, sp)
		s.sweeps[id] = sw
		return sw, nil
	})
	return sw, err
}

// lookupSweep resolves id to a sweep for the read-only endpoints,
// materializing disk-only entries left by a previous process from their
// verified sweep.json.
func (s *Server) lookupSweep(id string) (*Sweep, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepLocked(id, func() (spec.SweepSpec, error) {
		raw, err := s.cache.ReadArtifact(id, SweepSpecArtifact)
		if err != nil {
			return spec.SweepSpec{}, err
		}
		sp, err := spec.ParseSweep(raw)
		return sp.Normalized(), err
	})
}

// handleSweepStatus serves GET /v1/sweeps/{id}: full status with the cell
// table and dedupe/cache-hit counts.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, err := s.lookupSweep(id)
	if sw == nil {
		missing(w, err, fmt.Errorf("serve: no sweep %q", id))
		return
	}
	writeJSON(w, http.StatusOK, sw.view(true))
}

// handleSweepEvents streams a sweep's lifecycle over SSE: a "state"
// snapshot, then per-cell "cell" completion events and the terminal "state"
// transition, with the same monotonic-id / Last-Event-ID resume contract as
// run streams.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, err := s.lookupSweep(id)
	if sw == nil {
		missing(w, err, fmt.Errorf("serve: no sweep %q", id))
		return
	}
	s.streamSSE(w, r, sw.subscribeSince)
}

// handleSweepCancel implements POST /v1/sweeps/{id}/cancel: queued cells
// owned only by this sweep are released (removed from the fair queue and
// failed with kind "canceled"); cells shared with other sweeps or direct
// submissions, and cells already running, are left to finish — their
// results stay cacheable and their other owners unaffected.
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	if sw == nil {
		s.mu.Unlock()
		notFound(w, fmt.Errorf("serve: no sweep %q", id))
		return
	}
	if sw.State() == StateDone || sw.State() == StateFailed {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, sw.view(false))
		return
	}

	// Collect the exclusively-owned queued cells, then release them. The
	// failJob calls fire this sweep's terminal hooks, which find the cells
	// already settled below and no-op.
	var release []*Job
	sw.mu.Lock()
	sw.canceled = true
	for _, cell := range sw.cells {
		if cell.state != StateQueued && cell.state != StateRunning {
			continue
		}
		j := cell.job
		if j != nil && j.State() == StateQueued && !j.sharedBeyond(id) && s.fq.Remove(j) {
			release = append(release, j)
			cell.state = StateFailed
			cell.errKind = KindCanceled
			cell.errMsg = "serve: sweep canceled"
			sw.remaining--
			sw.failed++
			continue
		}
		// Running or shared: the job finishes on its own; the terminal
		// hook settles the cell later (the sweep is already terminal by
		// then, so the hook's publish is a no-op).
		cell.state = StateFailed
		cell.errKind = KindCanceled
		cell.errMsg = "serve: sweep canceled (cell left to finish)"
		sw.remaining--
		sw.failed++
	}
	sw.state = StateFailed
	sw.errKind = KindCanceled
	sw.errMsg = "serve: sweep canceled"
	view := sw.viewLocked(false)
	sw.publishLocked(Event{Type: "state", Data: view})
	sw.closeSubsLocked()
	sw.mu.Unlock()

	for _, j := range release {
		s.tel.queueDepth.Dec()
		s.failJob(j, KindCanceled, errors.New("serve: sweep canceled"))
	}
	s.tel.sweepsActive.Dec()
	s.tel.sweepsCanceled.Inc()
	sw.flight.Instant("sweep", "cancel", map[string]string{
		"released": fmt.Sprint(len(release)),
	})
	s.flights.Add(sw.flight)
	s.log.Info("sweep canceled", "sweep", id, "released", len(release))
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, sw.view(false))
}
