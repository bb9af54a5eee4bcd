// Package serve implements lapermd: an HTTP/JSON simulation service over the
// RunSpec API with a content-addressed result cache.
//
// A submission is a RunSpec; its SHA-256 content hash (spec.RunSpec.Hash) is
// simultaneously the run ID, the in-flight coalescing key, and the on-disk
// cache key. Two identical submissions therefore execute the simulation once:
// the second either attaches to the in-flight job (coalesced) or is answered
// from the cache (hit), and the engine's bit-determinism guarantees the
// cached artifacts are byte-identical to what a fresh run would produce.
//
// Execution runs on Workers worker goroutines: each takes the next queued job
// in fair order as soon as it is free, runs it under the server's base
// context, and maps run failures onto the engine's structured error taxonomy
// (deadlock, invariant, cycle-limit, deadline, canceled, panic). State
// transitions and timeline samples stream to clients over Server-Sent Events.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"laperm/internal/exp"
	"laperm/internal/faults"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/spec"
	"laperm/internal/telemetry"
	"laperm/internal/trace"
)

// Artifact names of one completed run, served under /v1/artifacts/{id}/.
// ResultArtifact (result.json) is declared in cache.go.
const (
	SpecArtifact     = "spec.json"
	EventsArtifact   = "events.jsonl"
	PerfettoArtifact = "trace.perfetto.json"
	TimelineArtifact = "timeline.csv"
	ReuseArtifact    = "reuse.csv"
)

// ArtifactNames lists every artifact a completed run exposes.
var ArtifactNames = []string{
	SpecArtifact, ResultArtifact, EventsArtifact,
	PerfettoArtifact, TimelineArtifact, ReuseArtifact,
}

// artifactContentType maps artifact names onto media types.
func artifactContentType(name string) string {
	switch filepath.Ext(name) {
	case ".json":
		return "application/json"
	case ".jsonl":
		return "application/jsonl"
	case ".csv":
		return "text/csv"
	}
	return "application/octet-stream"
}

// Config configures a Server.
type Config struct {
	// CacheDir roots the content-addressed result cache. Required.
	CacheDir string
	// CacheMaxBytes bounds the cache (LRU eviction); <= 0 means unlimited.
	CacheMaxBytes int64
	// Workers bounds concurrently executing jobs; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs; <= 0 means 256.
	// Submissions beyond it are shed with 429 and Retry-After (503 is the
	// draining answer).
	QueueDepth int
	// JobDeadline is the per-job wall-clock budget; a run that exceeds it
	// is canceled and fails with kind "deadline". <= 0 means unlimited.
	JobDeadline time.Duration
	// MaxCycles caps every job's simulated-cycle budget. A spec asking
	// for more (or for the engine default) runs under this cap instead; a
	// run that would exceed it fails with a *gpu.CycleLimitError (kind
	// "cycle-limit") and is not cached. Completing runs are unaffected —
	// MaxCycles only bounds, it never alters behaviour — so the cap
	// cannot poison the content-addressed cache. <= 0 means no cap.
	MaxCycles uint64
	// RetryLimit bounds transparent server-side re-executions of a job
	// whose attempt failed with a retryable kind (transient, panic).
	// 0 means the default of 2; negative disables retries entirely.
	RetryLimit int
	// Faults, when non-nil, arms deterministic failure injection across
	// the service: cache write/read/evict, submit, SSE flush, the cell site
	// at the start of each run attempt, and the engine's poll/watchdog sites.
	// Nil (production) keeps every site zero-cost.
	Faults *faults.Registry
	// Telemetry, when non-nil, is the metric registry the server
	// instruments itself onto — share one across servers to aggregate, or
	// leave nil and the server creates a private registry (reachable via
	// Server.Telemetry). GET /metrics renders it as Prometheus text.
	Telemetry *telemetry.Registry
	// Logger, when non-nil, receives structured logs: one line per job
	// lifecycle transition at Info, per-request access lines at Debug.
	// Nil discards everything.
	Logger *slog.Logger
	// MaxSweepCells caps how many cells one sweep may expand to, below
	// the spec-level spec.MaxSweepCells bound; <= 0 means the spec bound.
	MaxSweepCells int
	// SweepRPS rate-limits sweep submissions per tenant (token bucket,
	// sustained sweeps per second); <= 0 means unlimited. Submissions over
	// the limit get 429 with Retry-After.
	SweepRPS float64
	// SweepBurst is the per-tenant token-bucket burst; <= 0 means 1 (only
	// meaningful when SweepRPS > 0).
	SweepBurst int
}

// defaultRetryLimit is the number of transparent re-executions a job gets
// after retryable failures when Config.RetryLimit is zero.
const defaultRetryLimit = 2

// retryLimit resolves Config.RetryLimit's encoding.
func (c Config) retryLimit() int {
	switch {
	case c.RetryLimit < 0:
		return 0
	case c.RetryLimit == 0:
		return defaultRetryLimit
	}
	return c.RetryLimit
}

// Server is the lapermd service: handlers, the registries of live and
// failed jobs and sweeps, workers, and cache (which holds every done run
// and sweep). Create with New, start the workers with Start, mount Handler,
// and stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	workers int
	cache   *Cache
	meter   *exp.Meter
	started time.Time
	log     *slog.Logger
	tel     *serveMetrics
	flights *telemetry.FlightRing
	reqSeq  atomic.Uint64

	mu       sync.Mutex
	jobs     registry[*Job]
	sweeps   registry[*Sweep]
	draining bool
	fq       *fairQueue
	limits   *rateLimits

	baseCtx        context.Context
	cancelBase     context.CancelCauseFunc
	dispatcherDone chan struct{} // closed when the last worker returns

	// testBeforeRun, when non-nil, runs after a job transitions to
	// running and before the simulator starts — a test gate for
	// deterministic coalescing and cancellation scenarios.
	testBeforeRun func(*Job)
}

// failedRecordCap bounds the failed records each registry keeps: failures
// are never cached, so the last failedRecordCap stay answerable here.
const failedRecordCap = 256

// registry holds one kind of record (jobs or sweeps) by id: the live ones
// and the last failedRecordCap failed ones. A done record leaves at once:
// its verified cache entry answers for it. Guarded by the server's mu.
type registry[T interface {
	comparable
	State() State
}] struct {
	m         map[string]T
	failed    [failedRecordCap]T // the last failed records, oldest at next
	failedIDs [failedRecordCap]string
	next      int
}

// retire ends rec, id's terminal record, once its terminal hooks have run
// (and a done one's cache entry is written): a done record is dropped, a
// failed one displaces the oldest failed record. A record no longer
// registered under id (superseded, or never registered) is left alone.
func (r *registry[T]) retire(id string, rec T) {
	if r.m[id] != rec {
		return
	}
	if rec.State() != StateFailed {
		delete(r.m, id)
		return
	}
	old, oldID := r.failed[r.next], r.failedIDs[r.next]
	r.failed[r.next], r.failedIDs[r.next] = rec, id
	r.next = (r.next + 1) % failedRecordCap
	if oldID != "" && r.m[oldID] == old {
		delete(r.m, oldID)
	}
}

// New builds a Server (opening or creating its cache) without starting the
// workers; call Start before serving.
func New(cfg Config) (*Server, error) {
	cache, err := OpenCache(cfg.CacheDir, cfg.CacheMaxBytes)
	if err != nil {
		return nil, err
	}
	cache.flts = cfg.Faults
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:            cfg,
		workers:        workers,
		cache:          cache,
		meter:          exp.NewMeter(),
		started:        time.Now(),
		log:            logger,
		flights:        telemetry.NewFlightRing(flightRingCap),
		jobs:           registry[*Job]{m: make(map[string]*Job)},
		sweeps:         registry[*Sweep]{m: make(map[string]*Sweep)},
		fq:             newFairQueue(depth),
		limits:         newRateLimits(cfg.SweepRPS, cfg.SweepBurst),
		baseCtx:        ctx,
		cancelBase:     cancel,
		dispatcherDone: make(chan struct{}),
	}
	s.tel = s.newServeMetrics(reg)
	cache.readBytes = reg.Counter(MetricCacheReadB, "Artifact bytes read (and verified) from the cache.")
	cache.writtenBytes = reg.Counter(MetricCacheWrittenB, "Artifact bytes committed to the cache.")
	return s, nil
}

// Start launches the workers. Each one runs the next queued job as soon as
// it is free, until the queue is closed and empty.
func (s *Server) Start() {
	var wg sync.WaitGroup
	wg.Add(s.workers)
	for range s.workers {
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	go func() {
		wg.Wait()
		close(s.dispatcherDone)
	}()
}

// Drain stops accepting new work (submissions get 503), lets queued and
// running jobs finish, and returns when the last worker exits. If ctx
// expires first, in-flight simulations are canceled (they fail with kind
// "canceled") and Drain waits for the workers before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.closeQueue()
	select {
	case <-s.dispatcherDone:
		return nil
	case <-ctx.Done():
		s.cancelBase(fmt.Errorf("serve: drain deadline exceeded: %w", context.Cause(ctx)))
		<-s.dispatcherDone
		return ctx.Err()
	}
}

// Close cancels all in-flight work and waits for the workers to exit.
func (s *Server) Close() {
	s.closeQueue()
	s.cancelBase(errors.New("serve: server closed"))
	<-s.dispatcherDone
}

func (s *Server) closeQueue() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		s.fq.Close()
	}
}

// Cache exposes the server's result cache (tests and metrics).
func (s *Server) Cache() *Cache { return s.cache }

// Handler returns the service's routes, each wrapped with per-route
// request/latency instrumentation (the "route" label is the pattern, so
// path parameters never explode series cardinality).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.instrument("/v1/runs", s.handleSubmit))
	mux.HandleFunc("GET /v1/runs", s.instrument("/v1/runs:list", s.handleRunsList))
	mux.HandleFunc("GET /v1/runs/{id}", s.instrument("/v1/runs/{id}", s.handleStatus))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.instrument("/v1/runs/{id}/events", s.handleEvents))
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.instrument("/v1/runs/{id}/trace", s.handleTrace))
	mux.HandleFunc("GET /v1/artifacts/{id}/{name}",
		s.instrument("/v1/artifacts/{id}/{name}", s.handleArtifact(ArtifactNames)))
	mux.HandleFunc("POST /v1/sweeps", s.instrument("/v1/sweeps", s.handleSweepSubmit))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.instrument("/v1/sweeps/{id}", s.handleSweepStatus))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.instrument("/v1/sweeps/{id}/events", s.handleSweepEvents))
	mux.HandleFunc("POST /v1/sweeps/{id}/cancel", s.instrument("/v1/sweeps/{id}/cancel", s.handleSweepCancel))
	mux.HandleFunc("GET /v1/sweeps/{id}/artifacts/{name}",
		s.instrument("/v1/sweeps/{id}/artifacts/{name}", s.handleArtifact(SweepArtifactNames)))
	mux.HandleFunc("GET /v1/workloads", s.instrument("/v1/workloads", s.handleWorkloads))
	mux.HandleFunc("GET /v1/schedulers", s.instrument("/v1/schedulers", s.handleSchedulers))
	mux.HandleFunc("GET /v1/models", s.instrument("/v1/models", s.handleModels))
	// Prometheus text exposition of the server's metric registry.
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetricsProm))
	// Liveness: the process is up and serving HTTP. Always 200 — a
	// draining or saturated server is still alive and must not be killed
	// by a liveness probe mid-drain.
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	// Readiness: whether new submissions would be accepted right now.
	// False (503) while draining or while the launch queue is saturated,
	// so load balancers steer traffic away before it is shed.
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReady))
	return mux
}

// handleReady implements the readiness probe.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	saturated := s.fq.SinglesSaturated()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case saturated:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// Wire error kinds shared by every endpoint: the envelope's "kind" field
// classifies the failure so clients branch on a stable string, never on
// message text.
const (
	ErrKindBadRequest  = "bad-request"  // 400: the request itself is wrong; retrying it verbatim cannot help
	ErrKindNotFound    = "not-found"    // 404: no such run, sweep, or artifact
	ErrKindRateLimited = "rate-limited" // 429: shed or throttled; retry the idempotent request after retry_after
	ErrKindDraining    = "draining"     // 503: this process is shutting down; go to another backend
	ErrKindTransient   = "transient"    // 503: momentary server-side failure; retry after retry_after
	ErrKindInternal    = "internal"     // 500: a bug, not a caller problem
)

// apiError is the one JSON error envelope every endpoint writes: a stable
// kind, the human message, whether the same request may succeed on retry,
// and (when retryable) how long to wait. internal/client parses exactly
// this shape everywhere.
type apiError struct {
	Kind      string `json:"kind"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	// RetryAfterSec mirrors the Retry-After header for clients that only
	// see the body.
	RetryAfterSec int `json:"retry_after,omitempty"`
	// ValidWorkloads is attached when the error was an unknown workload.
	ValidWorkloads []string `json:"valid_workloads,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeAPIError writes the envelope; retryAfter > 0 also sets the
// Retry-After header (before WriteHeader, necessarily).
func writeAPIError(w http.ResponseWriter, status int, kind string, retryable bool, retryAfter int, err error) {
	body := apiError{Kind: kind, Message: err.Error(), Retryable: retryable, RetryAfterSec: retryAfter}
	var ue *kernels.UnknownWorkloadError
	if errors.As(err, &ue) {
		body.ValidWorkloads = ue.Known
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, body)
}

func badRequest(w http.ResponseWriter, err error) {
	writeAPIError(w, http.StatusBadRequest, ErrKindBadRequest, false, 0, err)
}

func notFound(w http.ResponseWriter, err error) {
	writeAPIError(w, http.StatusNotFound, ErrKindNotFound, false, 0, err)
}

func rateLimited(w http.ResponseWriter, retryAfter int, err error) {
	writeAPIError(w, http.StatusTooManyRequests, ErrKindRateLimited, true, retryAfter, err)
}

func draining(w http.ResponseWriter, err error) {
	// Draining is terminal for this process: no Retry-After, not
	// retryable here — clients should go elsewhere.
	writeAPIError(w, http.StatusServiceUnavailable, ErrKindDraining, false, 0, err)
}

func transientErr(w http.ResponseWriter, err error) {
	writeAPIError(w, http.StatusServiceUnavailable, ErrKindTransient, true, 1, err)
}

func internalErr(w http.ResponseWriter, err error) {
	writeAPIError(w, http.StatusInternalServerError, ErrKindInternal, false, 0, err)
}

// missing answers a lookup that found nothing. A transient (injected) cache
// read failure is retryable; anything else — no entry, or a corrupt entry
// that verification just discarded — is an honest miss the caller resolves
// by resubmitting.
func missing(w http.ResponseWriter, readErr, miss error) {
	if faults.IsInjected(readErr) {
		transientErr(w, readErr)
		return
	}
	notFound(w, miss)
}

// tenantOf extracts the request's fair-share tenant: the X-Laperm-Tenant
// header, defaulting to spec.DefaultTenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Laperm-Tenant"); t != "" {
		return t
	}
	return spec.DefaultTenant
}

// handleSubmit accepts a RunSpec, resolves it to a job by content hash —
// attaching to an in-flight job, answering from the cache, or enqueueing a
// fresh execution — and returns the job view (202 for newly queued work,
// 200 otherwise).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		badRequest(w, fmt.Errorf("serve: read request: %w", err))
		return
	}
	sp, err := spec.Parse(body)
	if err != nil {
		badRequest(w, err)
		return
	}
	sp = sp.Normalized()
	if err := sp.Validate(); err != nil {
		badRequest(w, err)
		return
	}
	id, err := sp.Hash()
	if err != nil {
		badRequest(w, err)
		return
	}
	s.tel.submissions.Inc()
	if err := s.cfg.Faults.Hit(faults.SiteSubmit); err != nil {
		// An injected submit failure models the server dying mid-accept:
		// answered as a retryable 503 so clients back off and resubmit —
		// idempotent by construction, since the content hash is the run ID.
		transientErr(w, err)
		return
	}

	s.mu.Lock()
	j, fresh, result, err := s.resolveLocked(id, sp, flowKey{tenant: tenantOf(r)}, 1)
	if err != nil {
		s.mu.Unlock()
		s.tel.cacheMisses.Inc()
		if errors.Is(err, errQueueClosed) {
			draining(w, errors.New("serve: draining, not accepting new runs"))
			return
		}
		// Load shedding: the queue is momentarily saturated. 429 with
		// Retry-After tells well-behaved clients to back off and retry
		// the same (idempotent) submission.
		s.tel.shed.Inc()
		rateLimited(w, 1,
			fmt.Errorf("serve: launch queue full (%d queued), retry later", s.tel.queueDepth.Value()))
		return
	}
	status := http.StatusOK
	switch {
	case j == nil:
		s.tel.cacheHits.Inc()
		s.mu.Unlock()
		writeJSON(w, status, doneRunView(id, sp, result))
		return
	case fresh:
		s.tel.cacheMisses.Inc()
		status = http.StatusAccepted
	default:
		s.tel.coalesced.Inc()
	}
	j.claim(!fresh)
	s.mu.Unlock()
	_, v, err := s.lookupRun(id) // the job's view, or its entry's if it is done already
	if err != nil {
		missing(w, err, fmt.Errorf("serve: no run %q", id))
		return
	}
	writeJSON(w, status, v)
}

// resolveLocked is the one place a run id becomes a job, for direct
// submissions and sweep cells alike. Called with s.mu held, so no two
// requests can resolve the same id concurrently. In order, it
//
//   - attaches to a live queued or running job;
//   - answers from the cache when the run is done: its result.json
//     verifies, and that entry is all there is of the run;
//   - otherwise queues a fresh execution on flow with the given fair-share
//     weight, superseding any failed record.
//
// It returns the job and whether this call queued it, or, for a done run,
// no job and the verified result.json. When the fair queue rejects the job
// (draining or full) the error is returned.
func (s *Server) resolveLocked(id string, sp spec.RunSpec, flow flowKey, weight int) (*Job, bool, []byte, error) {
	if j := s.jobs.m[id]; j != nil {
		if st := j.State(); st == StateQueued || st == StateRunning {
			return j, false, nil, nil
		}
	}
	if result, err := s.cache.ReadArtifact(id, ResultArtifact); err == nil {
		return nil, false, result, nil
	}
	j := newJob(id, sp)
	j.flow = flow
	j.sseEvents, j.sseDropped = s.tel.sseEvents, s.tel.sseDropped
	j.flight = telemetry.NewFlight(id)
	attrs := map[string]string{"workload": sp.Workload, "scheduler": sp.Scheduler}
	if flow.sweep != "" {
		attrs["sweep"] = flow.sweep
	}
	j.flight.Instant("job", "submit", attrs)
	j.enqueuedAt = time.Now()
	j.queueEnd = j.flight.Start("job", "queue")
	if err := s.fq.Push(j, weight); err != nil {
		return nil, false, nil, err
	}
	s.jobs.m[id] = j
	s.tel.queueDepth.Inc()
	s.logTransition(j, "queued")
	return j, true, nil, nil
}

// lookupRun resolves id for the read-only endpoints: its live or failed
// job with that job's view or, for a done run, a nil job with its cache
// entry's view (cachedRun). A miss comes with the error that explains it.
func (s *Server) lookupRun(id string) (*Job, jobView, error) {
	s.mu.Lock()
	j := s.jobs.m[id]
	s.mu.Unlock()
	if j != nil {
		if v := j.view(); v.State != StateDone {
			return j, v, nil
		}
	}
	v, err := s.cachedRun(id)
	return nil, v, err
}

// cachedRun answers a done run from its cache entry: the verified
// result.json and the spec. A run is done only while its result verifies,
// so an evicted or corrupt entry is a miss here, like an unknown id.
func (s *Server) cachedRun(id string) (jobView, error) {
	result, err := s.cache.ReadArtifact(id, ResultArtifact)
	if err != nil {
		return jobView{}, err
	}
	raw, err := s.cache.ReadArtifact(id, SpecArtifact)
	if err != nil {
		return jobView{}, err
	}
	sp, err := spec.Parse(raw)
	if err != nil {
		return jobView{}, err
	}
	return doneRunView(id, sp.Normalized(), result), nil
}

// doneRunView is the wire view of a done run: its cache entry's result and
// artifact list.
func doneRunView(id string, sp spec.RunSpec, result []byte) jobView {
	return jobView{ID: id, State: StateDone, Cached: true, Spec: sp, Result: result, Artifacts: ArtifactNames}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, v, err := s.lookupRun(id)
	if err != nil {
		missing(w, err, fmt.Errorf("serve: no run %q", id))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleArtifact serves one artifact of a completed run or sweep, accepting
// only the given names.
func (s *Server) handleArtifact(names []string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, name := r.PathValue("id"), r.PathValue("name")
		if !slices.Contains(names, name) {
			notFound(w, fmt.Errorf("serve: unknown artifact %q (valid: %v)", name, names))
			return
		}
		data, err := s.cache.ReadArtifact(id, name)
		if err != nil {
			missing(w, err, fmt.Errorf("serve: no artifact %s for %q", name, id))
			return
		}
		w.Header().Set("Content-Type", artifactContentType(name))
		w.Write(data)
	}
}

// handleEvents streams a job's lifecycle over Server-Sent Events: a "state"
// snapshot immediately, then state transitions, retry notices, and timeline
// "sample" events until the job reaches a terminal state. Every published
// event carries a job-scoped monotonic `id:`; a client reconnecting with
// Last-Event-ID replays everything it missed from the job's ring before
// rejoining the live stream. A done run has no ring: it streams its terminal
// snapshot alone.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, v, err := s.lookupRun(id)
	switch {
	case err != nil:
		missing(w, err, fmt.Errorf("serve: no run %q", id))
	case j != nil:
		s.streamSSE(w, r, j.subscribeSince)
	default:
		// State events carry no result; GET /v1/runs/{id} has it.
		v.Result, v.Artifacts = nil, nil
		s.streamSSE(w, r, func(afterID uint64) subscription { return doneSubscription(v, afterID) })
	}
}

// streamSSE runs the SSE protocol over any stream (job or sweep): snapshot
// or backlog replay per Last-Event-ID, then live events until the stream
// ends or the client goes away.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, subscribe func(uint64) subscription) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		internalErr(w, errors.New("serve: streaming unsupported"))
		return
	}
	var afterID uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			badRequest(w, fmt.Errorf("serve: bad Last-Event-ID %q", v))
			return
		}
		afterID = n
	}
	sub := subscribe(afterID)
	defer sub.cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// flush pushes one event; an injected flush fault drops the connection
	// mid-stream, exactly like a proxy or network tear — the client's
	// Last-Event-ID resume is the recovery path under test.
	flush := func(ev Event) bool {
		if err := s.cfg.Faults.Hit(faults.SiteSSEFlush); err != nil {
			return false
		}
		writeSSE(w, ev)
		flusher.Flush()
		return true
	}
	// A fresh attach opens with a snapshot, and so does a resume of an
	// ended stream that missed nothing, so the client still learns the
	// outcome. Any other resume replays the backlog — after a snapshot
	// bridging the gap if the ring has dropped events past afterID.
	gap := len(sub.backlog) > 0 && sub.backlog[0].ID > afterID+1
	if afterID == 0 || gap || (sub.ended && len(sub.backlog) == 0) {
		snapID := sub.lastID
		if len(sub.backlog) > 0 {
			snapID = sub.backlog[0].ID - 1
		}
		if !flush(Event{ID: snapID, Type: "state", Data: sub.snap}) {
			return
		}
	}
	for _, ev := range sub.backlog {
		if !flush(ev) {
			return
		}
	}
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				return // terminal state delivered; stream complete
			}
			if !flush(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w io.Writer, ev Event) {
	payload, err := json.Marshal(ev.Data)
	if err != nil {
		payload = []byte(`{"error":"marshal failed"}`)
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, payload)
}

// work is one worker's loop: pop the next job and run it. A job popped after
// the base context is canceled fails "canceled" without ever running.
func (s *Server) work() {
	for {
		j, ok := s.fq.Pop()
		if !ok {
			return
		}
		if s.baseCtx.Err() != nil {
			s.tel.queueDepth.Dec()
			s.failJob(j, KindCanceled, shutdownCause(s.baseCtx))
			continue
		}
		s.runJob(s.baseCtx, j)
	}
}

func shutdownCause(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return errors.New("serve: server shutting down")
}

// finishJob marks a job done: counters, flight hand-off into the completed
// ring, the lifecycle log line, and the end of its record — its cache entry
// answers for the run from now on. Called without s.mu.
func (s *Server) finishJob(j *Job) {
	s.tel.jobsDone.Inc()
	j.end("", nil)
	s.flights.Add(j.flight)
	s.mu.Lock()
	s.jobs.retire(j.ID, j)
	s.mu.Unlock()
	s.logTransition(j, "done")
}

// failJob marks a job failed and moves its record into the failed ring.
// Called without s.mu: the job's terminal hooks may finalize a sweep, which
// takes it.
func (s *Server) failJob(j *Job, kind string, err error) {
	s.markFailed(j, kind, err)
	s.mu.Lock()
	s.jobs.retire(j.ID, j)
	s.mu.Unlock()
}

// markFailed fails a job with a classified error: counters, flight
// hand-off, and the lifecycle log line carrying kind and error.
func (s *Server) markFailed(j *Job, kind string, err error) {
	s.tel.jobsFailed.Inc()
	j.end(kind, err)
	j.flight.Instant("job", "fail", map[string]string{"kind": kind, "error": err.Error()})
	s.flights.Add(j.flight)
	transition := "failed"
	if kind == KindCanceled {
		transition = "canceled"
	}
	s.logTransition(j, transition,
		slog.String("kind", kind), slog.String("error", err.Error()))
}

// runJob executes one job end to end: state transitions, the simulation
// itself (with bounded transparent retries of retryable failures), artifact
// writes, and error classification. A panic anywhere in the attempt is
// contained there, so the job always reaches a terminal state.
func (s *Server) runJob(ctx context.Context, j *Job) {
	s.tel.queueDepth.Dec()
	s.tel.running.Inc()
	defer s.tel.running.Dec()
	j.queueEnd()
	s.tel.queueWait.Observe(time.Since(j.enqueuedAt).Seconds())
	runEnd := j.flight.Start("job", "run")
	defer runEnd()
	runStart := time.Now()
	defer func() { s.tel.runSeconds.Observe(time.Since(runStart).Seconds()) }()
	j.setRunning()
	s.logTransition(j, "running")
	if hook := s.testBeforeRun; hook != nil {
		hook(j)
	}
	if err := ctx.Err(); err != nil {
		s.failJob(j, KindCanceled, shutdownCause(ctx))
		return
	}
	jctx := ctx
	if s.cfg.JobDeadline > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, s.cfg.JobDeadline)
		defer cancel()
	}
	limit := s.cfg.retryLimit()
	for attempt := 0; ; attempt++ {
		attemptEnd := j.flight.Start("job", fmt.Sprintf("attempt %d", attempt+1))
		err := s.attempt(jctx, j)
		attemptEnd()
		if err == nil {
			s.finishJob(j)
			return
		}
		kind := classifyErr(err)
		if attempt < limit && retryableKind(kind) && jctx.Err() == nil {
			// Bit-determinism makes retries safe: a clean re-execution of
			// the same spec produces byte-identical artifacts, so nothing
			// a failed attempt touched can leak — failures are never
			// cached, and Put is atomic-per-artifact with the completion
			// marker last.
			s.tel.retries.Inc()
			j.noteRetry()
			j.flight.Instant("job", "retry", map[string]string{
				"kind": kind, "error": err.Error(),
			})
			s.logTransition(j, "retrying",
				slog.Int("attempt", attempt+1), slog.String("kind", kind),
				slog.String("error", err.Error()))
			j.publish(Event{Type: "retry", Data: map[string]any{
				"attempt": attempt + 1, "kind": kind, "error": err.Error(),
			}})
			continue
		}
		s.failJob(j, kind, err)
		return
	}
}

// attempt is one full execution try: simulate, assemble artifacts, commit
// to the cache. Panics are recovered into errors here — an injected panic
// fault surfaces as its structured *faults.InjectedError (so it classifies
// as transient), anything else as an *exp.PanicError — keeping the worker
// alive and the job owned by runJob. The cell failpoint sits inside this
// scope, so its faults retry like any other attempt failure.
func (s *Server) attempt(ctx context.Context, j *Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ie, ok := r.(*faults.InjectedError); ok {
				err = ie
				return
			}
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &exp.PanicError{Value: r, Stack: buf}
		}
	}()
	if err := s.cfg.Faults.Hit(faults.SiteCellRun); err != nil {
		return err
	}
	res, rec, err := s.execute(ctx, j)
	if err != nil {
		return err
	}
	artEnd := j.flight.Start("engine", "artifacts")
	defer artEnd()
	arts, err := RunArtifacts(j.Spec, res, rec)
	if err != nil {
		return err
	}
	return s.cache.Put(j.ID, arts)
}

// execute builds the job's simulator with trace recording attached, runs it
// under ctx, feeds the throughput meter, and returns the result and its
// recorder.
func (s *Server) execute(ctx context.Context, j *Job) (*gpu.Result, *trace.Recorder, error) {
	rec := trace.NewRecorder()
	buildEnd := j.flight.Start("engine", "build")
	sim, _, err := j.Spec.BuildWith(func(g *gpu.Options) {
		g.Faults = s.cfg.Faults
		if s.cfg.MaxCycles > 0 && (g.MaxCycles == 0 || g.MaxCycles > s.cfg.MaxCycles) {
			g.MaxCycles = s.cfg.MaxCycles
		}
		// Engine run phases (simulate loop, result assembly) land on the
		// flight's "engine" track alongside build and artifacts.
		g.TraceSpan = func(name string, start, end time.Time) {
			j.flight.Add("engine", name, start, end)
		}
		rec.Attach(g)
		recordSample := g.TraceSample
		g.TraceSample = func(smp gpu.Sample) {
			recordSample(smp)
			j.publish(Event{Type: "sample", Data: smp})
		}
	})
	buildEnd()
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.RunContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	rec.FinishRun()
	s.meter.Add(res.Cycles)
	return res, rec, nil
}

// RunArtifacts is the artifact set of one completed run, rec having been
// attached to it and finished: lapermd's cache entry and the files
// `lapermsim -out` writes. result.json leaves out the host-timing fields
// (WallTime, SimCyclesPerSec), so equal specs give byte-identical sets; res
// itself is not modified.
func RunArtifacts(sp spec.RunSpec, res *gpu.Result, rec *trace.Recorder) ([]Artifact, error) {
	canon, err := sp.Canonical()
	if err != nil {
		return nil, err
	}
	stripped := *res
	stripped.WallTime, stripped.SimCyclesPerSec = 0, 0
	return []Artifact{
		{Name: SpecArtifact, Write: func(w io.Writer) error {
			_, err := w.Write(append(canon, '\n'))
			return err
		}},
		{Name: EventsArtifact, Write: rec.WriteJSONL},
		{Name: PerfettoArtifact, Write: rec.WritePerfetto},
		{Name: TimelineArtifact, Write: func(w io.Writer) error { return exp.WriteTimelineCSV(res, w) }},
		{Name: ReuseArtifact, Write: func(w io.Writer) error { return exp.WriteRunReuseCSV(res, w) }},
		{Name: ResultArtifact, Write: func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(&stripped)
		}},
	}, nil
}
