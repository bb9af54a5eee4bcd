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
// Execution fans into the experiment harness's bounded worker pool
// (exp.Pool.RunContext): a dispatcher goroutine batches queued jobs up to the
// worker count, runs each batch under the server's base context, and maps
// run failures onto the engine's structured error taxonomy (deadlock,
// invariant, cycle-limit, deadline, canceled, panic). Progress and timeline
// samples stream to clients over Server-Sent Events.
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
	// Submissions beyond it are rejected with 503.
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
	// the service: cache write/read/evict, submit, SSE flush, the
	// experiment pool's cell site, and the engine's poll/watchdog sites.
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

// Server is the lapermd service: handlers, job registry, dispatcher, and
// cache. Create with New, start the dispatcher with Start, mount Handler,
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
	jobs     map[string]*Job
	sweeps   map[string]*Sweep
	jobSeq   uint64 // listing-order sequence; next value, guarded by mu
	draining bool
	fq       *fairQueue
	limits   *rateLimits

	batchMu sync.Mutex
	batch   []*Job

	baseCtx        context.Context
	cancelBase     context.CancelCauseFunc
	dispatcherDone chan struct{}

	// testBeforeRun, when non-nil, runs after a job transitions to
	// running and before the simulator starts — a test gate for
	// deterministic coalescing and cancellation scenarios.
	testBeforeRun func(*Job)
}

// New builds a Server (opening or creating its cache) without starting the
// dispatcher; call Start before serving.
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
		jobs:           make(map[string]*Job),
		sweeps:         make(map[string]*Sweep),
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

// Start launches the dispatcher goroutine.
func (s *Server) Start() { go s.dispatch() }

// Drain stops accepting new work (submissions get 503), lets queued and
// running jobs finish, and returns when the dispatcher exits. If ctx expires
// first, in-flight simulations are canceled (they fail with kind "canceled")
// and Drain waits for the dispatcher before returning ctx's error.
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

// Close cancels all in-flight work and waits for the dispatcher to exit.
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
	j, how, result, err := s.resolveLocked(id, sp, flowKey{tenant: tenantOf(r)}, 1)
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
	// The job now carries a direct claim: a sweep that also owns it may no
	// longer release it on cancellation.
	j.noteSingleton()
	status := http.StatusOK
	switch how {
	case resolvedAttach:
		s.tel.coalesced.Inc()
		j.noteCoalesced()
	case resolvedCached:
		s.tel.cacheHits.Inc()
	case resolvedScheduled:
		s.tel.cacheMisses.Inc()
		status = http.StatusAccepted
	}
	s.mu.Unlock()
	s.respondJob(w, status, j, result)
}

// resolution is the case resolveLocked applied to a run id.
type resolution int

const (
	resolvedAttach    resolution = iota // a live queued or running job
	resolvedCached                      // the run is done: its result verifies on disk
	resolvedScheduled                   // a fresh execution was queued
)

// resolveLocked is the one place a run id becomes a job, for direct
// submissions and sweep cells alike. Called with s.mu held, so no two
// requests can resolve the same id concurrently. In order, it
//
//   - attaches to a live queued or running job;
//   - answers from the cache when the run is done (see doneLocked),
//     reusing the done record or registering a cached one;
//   - otherwise queues a fresh execution on flow with the given fair-share
//     weight, superseding any failed or unverifiable record.
//
// It returns the job, the case, and for resolvedCached the verified
// result.json. When the fair queue rejects the job (draining or full) the
// error is returned with the unregistered job.
func (s *Server) resolveLocked(id string, sp spec.RunSpec, flow flowKey, weight int) (*Job, resolution, []byte, error) {
	if j := s.jobs[id]; j != nil {
		if st := j.State(); st == StateQueued || st == StateRunning {
			return j, resolvedAttach, nil, nil
		}
	}
	j, result, err := doneLocked(s.cache, s.jobs, id, func() (*Job, error) {
		return s.registerLocked(newCachedJob(id, sp)), nil
	})
	if err == nil {
		return j, resolvedCached, result, nil
	}
	j = newJob(id, sp)
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
		return j, resolvedScheduled, nil, err
	}
	s.registerLocked(j)
	s.tel.queueDepth.Inc()
	s.logTransition(j, "queued")
	return j, resolvedScheduled, nil, nil
}

// doneLocked applies the rule that a run or sweep is done only if its
// result.json verifies on disk. It returns the verified bytes with id's
// done record in reg, or, when reg holds none, the cached record register
// builds and registers. A done record whose entry is absent or corrupt
// (verification discards corrupt entries) is dropped from reg. A transient
// (injected) read failure is no evidence against a done record: it is
// returned, unverified, with the error. Called with s.mu held.
func doneLocked[T interface{ State() State }](c *Cache, reg map[string]T, id string, register func() (T, error)) (T, []byte, error) {
	var none T
	rec, ok := reg[id]
	done := ok && rec.State() == StateDone
	result, err := c.ReadArtifact(id, ResultArtifact)
	switch {
	case err != nil && done && faults.IsInjected(err):
		return rec, nil, err
	case err != nil:
		if done {
			delete(reg, id)
		}
		return none, nil, err
	case done:
		return rec, result, nil
	}
	if rec, err = register(); err != nil {
		return none, nil, err
	}
	return rec, result, nil
}

// registerLocked adds j to the registry under s.mu, assigning its listing
// sequence number and superseding whatever record held the id.
func (s *Server) registerLocked(j *Job) *Job {
	s.jobSeq++
	j.seq = s.jobSeq
	s.jobs[j.ID] = j
	return j
}

// lookupJob resolves id to a job for the read-only endpoints under the
// same rule as resolveLocked: a live or failed record stands as is, a done
// one only while its result verifies, and a disk-only entry left by a
// previous process is materialized only when its result and spec both
// verify. It returns the verified result for done jobs; a nil job comes
// with the read error that explains the miss.
func (s *Server) lookupJob(id string) (*Job, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && j.State() != StateDone {
		return j, nil, nil
	}
	return doneLocked(s.cache, s.jobs, id, func() (*Job, error) {
		raw, err := s.cache.ReadArtifact(id, SpecArtifact)
		if err != nil {
			return nil, err
		}
		sp, err := spec.Parse(raw)
		if err != nil {
			return nil, err
		}
		return s.registerLocked(newCachedJob(id, sp.Normalized())), nil
	})
}

// respondJob writes a job view, embedding the verified result and the
// artifact list for completed jobs. A done job without a result is one
// that finished after it was resolved; its result is read now.
func (s *Server) respondJob(w http.ResponseWriter, status int, j *Job, result []byte) {
	view := j.view(result)
	if view.State == StateDone {
		if view.Result == nil {
			view.Result, _ = s.cache.ReadArtifact(j.ID, ResultArtifact)
		}
		view.Artifacts = ArtifactNames
	}
	writeJSON(w, status, view)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, result, err := s.lookupJob(id)
	if j == nil {
		missing(w, err, fmt.Errorf("serve: no run %q", id))
		return
	}
	s.respondJob(w, http.StatusOK, j, result)
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
// snapshot immediately, then state transitions, retry notices, batch
// "progress" ticks, and timeline "sample" events until the job reaches a
// terminal state. Every published event carries a job-scoped monotonic
// `id:`; a client reconnecting with Last-Event-ID replays everything it
// missed from the job's ring before rejoining the live stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, _, err := s.lookupJob(id)
	if j == nil {
		missing(w, err, fmt.Errorf("serve: no run %q", id))
		return
	}
	s.streamSSE(w, r, j.subscribeSince)
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
	// A fresh attach opens with a snapshot. A resume replays the backlog
	// instead — unless the ring has dropped events past afterID, in which
	// case a snapshot bridges the gap before the backlog.
	gap := afterID > 0 && len(sub.backlog) > 0 && sub.backlog[0].ID > afterID+1
	if afterID == 0 || gap {
		snapID := sub.lastID
		if len(sub.backlog) > 0 {
			snapID = sub.backlog[0].ID - 1
		}
		if !flush(Event{ID: snapID, Type: "state", Data: sub.snap}) {
			return
		}
	} else if afterID > 0 && len(sub.backlog) == 0 {
		// Nothing missed; if the job is already terminal the closed
		// channel would end the stream with no bytes at all, so restate
		// the terminal snapshot for the client's benefit.
		select {
		case ev, open := <-sub.ch:
			if !open {
				flush(Event{ID: sub.lastID, Type: "state", Data: sub.snap})
				return
			}
			if !flush(ev) { // a live event raced in; deliver it
				return
			}
		default:
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

// dispatch is the dispatcher goroutine: it batches queued jobs up to the
// worker count and fans each batch into the experiment pool under the
// server's base context. It exits when the queue is closed and drained.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	pool := exp.Pool{
		Workers: s.workers, Meter: s.meter, Progress: s.batchProgress, Faults: s.cfg.Faults,
		Busy: s.tel.poolBusy, CellSeconds: s.tel.cellSeconds,
	}
	for {
		batch, ok := s.fq.PopBatch(s.workers)
		if !ok {
			return
		}
		s.setBatch(batch)
		// Job failures are recorded on the job, never returned as cell
		// errors: a failed run must not stop the pool from claiming the
		// rest of the batch. A non-nil pool error is therefore worker
		// machinery failing (an injected cell fault, or cancellation),
		// not a job outcome.
		poolErr := pool.RunContext(s.baseCtx, len(batch), func(ctx context.Context, i int) error {
			s.runJob(ctx, batch[i])
			return nil
		})
		s.setBatch(nil)
		// Cells the pool never ran — skipped by cancellation, or stranded
		// when an injected cell fault stopped the batch — still hold
		// queued jobs; fail them with the real cause so no submission
		// waits forever and clients can classify (and resubmit
		// transients).
		for _, j := range batch {
			if j.State() == StateQueued {
				s.tel.queueDepth.Dec()
				if poolErr != nil {
					s.failJob(j, classifyErr(poolErr), poolErr)
				} else {
					s.failJob(j, KindCanceled, shutdownCause(s.baseCtx))
				}
			}
		}
	}
}

func (s *Server) setBatch(batch []*Job) {
	s.batchMu.Lock()
	s.batch = batch
	s.batchMu.Unlock()
}

// batchProgress relays pool progress to every still-running job's event
// stream.
func (s *Server) batchProgress(p exp.Progress) {
	s.batchMu.Lock()
	batch := s.batch
	s.batchMu.Unlock()
	ev := Event{Type: "progress", Data: map[string]any{
		"done":               p.Done,
		"total":              p.Total,
		"elapsed_sec":        p.Elapsed.Seconds(),
		"eta_sec":            p.ETA.Seconds(),
		"sim_cycles":         p.SimCycles,
		"sim_cycles_per_sec": p.CyclesPerSec,
	}}
	for _, j := range batch {
		if j.State() == StateRunning {
			j.publish(ev)
		}
	}
}

func shutdownCause(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return errors.New("serve: server shutting down")
}

// finishJob marks a job done: counters, flight hand-off into the completed
// ring, and the lifecycle log line.
func (s *Server) finishJob(j *Job) {
	s.tel.jobsDone.Inc()
	j.finish()
	s.flights.Add(j.flight)
	s.logTransition(j, "done")
}

// failJob marks a job failed with a classified error: counters, flight
// hand-off, and the lifecycle log line carrying kind and error.
func (s *Server) failJob(j *Job, kind string, err error) {
	s.tel.jobsFailed.Inc()
	j.fail(kind, err)
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
// contained here — it must not unwind into the pool's cell recovery, which
// would strand the job in StateRunning forever.
func (s *Server) runJob(ctx context.Context, j *Job) {
	s.tel.queueDepth.Dec()
	s.tel.running.Inc()
	defer s.tel.running.Dec()
	if j.queueEnd != nil {
		j.queueEnd()
	}
	if !j.enqueuedAt.IsZero() {
		s.tel.queueWait.Observe(time.Since(j.enqueuedAt).Seconds())
	}
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
// cell alive and the job owned by this function.
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
	res, rec, err := s.execute(ctx, j)
	if err != nil {
		return err
	}
	artEnd := j.flight.Start("engine", "artifacts")
	defer artEnd()
	arts, err := runArtifacts(j.Spec, res, rec)
	if err != nil {
		return err
	}
	return s.cache.Put(j.ID, arts)
}

// execute builds the job's simulator with trace recording attached, runs it
// under ctx, and returns the bit-deterministic result (host-timing fields
// stripped after feeding the throughput meter).
func (s *Server) execute(ctx context.Context, j *Job) (*gpu.Result, *trace.Recorder, error) {
	rec := trace.NewRecorder()
	buildEnd := j.flight.Start("engine", "build")
	sim, _, err := j.Spec.BuildWith(func(g *gpu.Options) {
		g.Faults = s.cfg.Faults
		if s.cfg.MaxCycles > 0 && (g.MaxCycles == 0 || g.MaxCycles > s.cfg.MaxCycles) {
			g.MaxCycles = s.cfg.MaxCycles
		}
		if j.flight != nil {
			// Engine run phases (simulate loop, result assembly) land on
			// the flight's "engine" track alongside build and artifacts.
			g.TraceSpan = func(name string, start, end time.Time) {
				j.flight.Add("engine", name, start, end)
			}
		}
		g.TraceDispatch = rec.DispatchHook()
		g.TraceQueue = rec.QueueHook()
		g.TraceBlockDone = rec.BlockHook()
		recordSample := rec.SampleHook()
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
	rec.FinishRun(sim)
	s.meter.Add(res.Cycles)
	res.WallTime, res.SimCyclesPerSec = 0, 0
	return res, rec, nil
}

// runArtifacts assembles a completed run's cache entry. ResultArtifact is
// included last-by-convention; the cache enforces write ordering itself.
func runArtifacts(sp spec.RunSpec, res *gpu.Result, rec *trace.Recorder) ([]Artifact, error) {
	canon, err := sp.Canonical()
	if err != nil {
		return nil, err
	}
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
			return enc.Encode(res)
		}},
	}, nil
}
