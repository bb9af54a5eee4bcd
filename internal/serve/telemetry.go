package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"laperm/internal/faults"
	"laperm/internal/telemetry"
	"laperm/internal/trace"
)

// flightRingCap bounds the completed-job trace ring: the last N terminal
// jobs keep their flight recorder reachable through the trace endpoint even
// under sustained traffic.
const flightRingCap = 256

// Metric names, exported so tests and the smoke scrape assert against
// constants instead of string literals.
const (
	MetricHTTPRequests   = "laperm_http_requests_total"
	MetricHTTPLatency    = "laperm_http_request_seconds"
	MetricSubmissions    = "laperm_jobs_submitted_total"
	MetricCoalesced      = "laperm_jobs_coalesced_total"
	MetricJobsDone       = "laperm_jobs_done_total"
	MetricJobsFailed     = "laperm_jobs_failed_total"
	MetricRetries        = "laperm_job_retries_total"
	MetricShed           = "laperm_jobs_shed_total"
	MetricQueueDepth     = "laperm_queue_depth"
	MetricRunning        = "laperm_jobs_running"
	MetricQueueWait      = "laperm_queue_wait_seconds"
	MetricRunSeconds     = "laperm_job_run_seconds"
	MetricSSEEvents      = "laperm_sse_events_total"
	MetricSSEDropped     = "laperm_sse_dropped_total"
	MetricCacheHits      = "laperm_cache_hits_total"
	MetricCacheMisses    = "laperm_cache_misses_total"
	MetricCacheEvictions = "laperm_cache_evictions_total"
	MetricCacheCorrupt   = "laperm_cache_corruptions_total"
	MetricCacheReadB     = "laperm_cache_read_bytes_total"
	MetricCacheWrittenB  = "laperm_cache_written_bytes_total"
	MetricCacheEntries   = "laperm_cache_entries"
	MetricCacheBytes     = "laperm_cache_bytes"
	MetricCacheMaxBytes  = "laperm_cache_max_bytes"
	MetricSimCycles      = "laperm_sim_cycles_total"
	MetricPoolBusy       = "laperm_pool_busy_workers"
	MetricCellSeconds    = "laperm_pool_cell_seconds"
	MetricFaultEvals     = "laperm_fault_evals_total"
	MetricFaultHits      = "laperm_fault_hits_total"
	MetricUptime         = "laperm_uptime_seconds"
	MetricDraining       = "laperm_draining"
	MetricWorkers        = "laperm_workers"

	MetricSweepSubmissions    = "laperm_sweeps_submitted_total"
	MetricSweepsCoalesced     = "laperm_sweeps_coalesced_total"
	MetricSweepsThrottled     = "laperm_sweeps_throttled_total"
	MetricSweepsDone          = "laperm_sweeps_done_total"
	MetricSweepsFailed        = "laperm_sweeps_failed_total"
	MetricSweepsCanceled      = "laperm_sweeps_canceled_total"
	MetricSweepsActive        = "laperm_sweeps_active"
	MetricSweepCellsExpanded  = "laperm_sweep_cells_expanded_total"
	MetricSweepCellsDeduped   = "laperm_sweep_cells_deduped_total"
	MetricSweepCellsCached    = "laperm_sweep_cells_cached_total"
	MetricSweepCellsScheduled = "laperm_sweep_cells_scheduled_total"
	MetricFairQueueDepth      = "laperm_fair_queue_depth"
)

// serveMetrics is the server's instrumentation bundle: every handle the
// request, dispatch, and cache paths touch, registered once at New time so
// hot paths never pay a registry lookup.
type serveMetrics struct {
	reg *telemetry.Registry

	httpRequests *telemetry.CounterVec
	httpLatency  *telemetry.HistogramVec

	submissions *telemetry.Counter
	coalesced   *telemetry.Counter
	jobsDone    *telemetry.Counter
	jobsFailed  *telemetry.Counter
	retries     *telemetry.Counter
	shed        *telemetry.Counter

	queueDepth *telemetry.Gauge
	running    *telemetry.Gauge
	queueWait  *telemetry.Histogram
	runSeconds *telemetry.Histogram

	sseEvents  *telemetry.Counter
	sseDropped *telemetry.Counter

	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter

	poolBusy    *telemetry.Gauge
	cellSeconds *telemetry.Histogram

	sweepSubmissions    *telemetry.Counter
	sweepsCoalesced     *telemetry.Counter
	sweepsThrottled     *telemetry.Counter
	sweepsDone          *telemetry.Counter
	sweepsFailed        *telemetry.Counter
	sweepsCanceled      *telemetry.Counter
	sweepsActive        *telemetry.Gauge
	sweepCellsExpanded  *telemetry.Counter
	sweepCellsDeduped   *telemetry.Counter
	sweepCellsCached    *telemetry.Counter
	sweepCellsScheduled *telemetry.Counter
}

// newServeMetrics registers the server's metric families on reg and wires
// scrape-time collectors for externally owned values (uptime, drain state,
// cache occupancy, simulated-cycle throughput).
func (s *Server) newServeMetrics(reg *telemetry.Registry) *serveMetrics {
	m := &serveMetrics{
		reg: reg,

		httpRequests: reg.CounterVec(MetricHTTPRequests,
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		httpLatency: reg.HistogramVec(MetricHTTPLatency,
			"HTTP request latency in seconds, by route pattern.", telemetry.DefBuckets, "route"),

		submissions: reg.Counter(MetricSubmissions, "RunSpec submissions accepted for processing."),
		coalesced:   reg.Counter(MetricCoalesced, "Submissions that attached to an already in-flight job."),
		jobsDone:    reg.Counter(MetricJobsDone, "Jobs that completed successfully."),
		jobsFailed:  reg.Counter(MetricJobsFailed, "Jobs that reached the failed state."),
		retries:     reg.Counter(MetricRetries, "Transparent server-side re-executions after retryable failures."),
		shed:        reg.Counter(MetricShed, "Submissions shed with 429 because the launch queue was full."),

		queueDepth: reg.Gauge(MetricQueueDepth, "Jobs queued and not yet started."),
		running:    reg.Gauge(MetricRunning, "Jobs executing right now."),
		queueWait: reg.Histogram(MetricQueueWait,
			"Seconds a job waited between enqueue and dispatch.", telemetry.DefBuckets),
		runSeconds: reg.Histogram(MetricRunSeconds,
			"Seconds a dispatched job spent executing (all attempts).", telemetry.DefBuckets),

		sseEvents:  reg.Counter(MetricSSEEvents, "Events published to job SSE streams."),
		sseDropped: reg.Counter(MetricSSEDropped, "SSE events dropped because a subscriber lagged (full buffer)."),

		cacheHits:   reg.Counter(MetricCacheHits, "Submissions answered from a completed job or the disk cache."),
		cacheMisses: reg.Counter(MetricCacheMisses, "Submissions that required a fresh execution."),

		poolBusy: reg.Gauge(MetricPoolBusy, "Worker-pool cells executing right now."),
		cellSeconds: reg.Histogram(MetricCellSeconds,
			"Per-cell wall-clock latency in seconds inside the worker pool.", telemetry.DefBuckets),

		sweepSubmissions: reg.Counter(MetricSweepSubmissions, "SweepSpec submissions accepted for processing."),
		sweepsCoalesced:  reg.Counter(MetricSweepsCoalesced, "Sweep submissions that attached to an already in-flight sweep."),
		sweepsThrottled:  reg.Counter(MetricSweepsThrottled, "Sweep submissions rejected by the per-tenant rate limit."),
		sweepsDone:       reg.Counter(MetricSweepsDone, "Sweeps that completed with every cell successful."),
		sweepsFailed:     reg.Counter(MetricSweepsFailed, "Sweeps that reached the failed state."),
		sweepsCanceled:   reg.Counter(MetricSweepsCanceled, "Sweeps canceled by their submitter."),
		sweepsActive:     reg.Gauge(MetricSweepsActive, "Sweeps with cells still outstanding."),
		sweepCellsExpanded: reg.Counter(MetricSweepCellsExpanded,
			"Cells produced by server-side sweep expansion."),
		sweepCellsDeduped: reg.Counter(MetricSweepCellsDeduped,
			"Sweep cells that attached to work another request already owned (cross-request dedupe)."),
		sweepCellsCached: reg.Counter(MetricSweepCellsCached,
			"Sweep cells answered from a completed job or the disk cache without executing."),
		sweepCellsScheduled: reg.Counter(MetricSweepCellsScheduled,
			"Sweep cells scheduled as fresh executions."),
	}

	reg.GaugeFunc(MetricUptime, "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc(MetricDraining, "1 while the server is draining, else 0.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			return 1
		}
		return 0
	})
	workers := reg.Gauge(MetricWorkers, "Configured worker-pool size.")
	workers.Set(int64(s.workers))
	reg.CounterFunc(MetricSimCycles, "Total simulated cycles executed by completed runs.",
		func() float64 { return float64(s.meter.Cycles()) })

	// Cache counters are incremented at the cache's own sites; occupancy
	// gauges sync from one Stats snapshot per scrape.
	entries := reg.Gauge(MetricCacheEntries, "Complete entries in the result cache.")
	bytes := reg.Gauge(MetricCacheBytes, "Bytes held by the result cache.")
	maxBytes := reg.Gauge(MetricCacheMaxBytes, "Configured cache byte budget (0 = unlimited).")
	reg.OnScrape(func() {
		st := s.cache.Stats()
		entries.Set(int64(st.Entries))
		bytes.Set(st.Bytes)
		maxBytes.Set(st.MaxBytes)
	})
	reg.CounterFunc(MetricCacheEvictions, "Cache entries evicted to stay under the byte budget.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.CounterFunc(MetricCacheCorrupt, "Cache entries discarded after failing integrity verification.",
		func() float64 { return float64(s.cache.Stats().Corruptions) })

	// Fair-share queue depths, one gauge per tenant, synced per scrape.
	// Tenants that drain to empty are zeroed (not dropped) so dashboards
	// see the queue empty rather than a stale last value.
	fairDepth := reg.GaugeVec(MetricFairQueueDepth,
		"Jobs queued in the fair-share queue, by tenant.", "tenant")
	seenTenants := make(map[string]bool)
	reg.OnScrape(func() {
		depths := s.fq.Depths()
		for tenant := range seenTenants {
			if _, ok := depths[tenant]; !ok {
				fairDepth.With(tenant).Set(0)
			}
		}
		for tenant, n := range depths {
			seenTenants[tenant] = true
			fairDepth.With(tenant).Set(int64(n))
		}
	})

	// Fault-injection sites: one evals/hits counter pair per armed site,
	// pre-created so every site is visible at zero, fed by the registry's
	// observer on the (zero-alloc) hit path.
	if s.cfg.Faults != nil {
		evalsVec := reg.CounterVec(MetricFaultEvals,
			"Failpoint evaluations, by armed site.", "site")
		hitsVec := reg.CounterVec(MetricFaultHits,
			"Failpoint rule fires, by armed site.", "site")
		evals := make(map[faults.Site]*telemetry.Counter)
		hits := make(map[faults.Site]*telemetry.Counter)
		for site := range s.cfg.Faults.Counts() {
			evals[site] = evalsVec.With(string(site))
			hits[site] = hitsVec.With(string(site))
		}
		s.cfg.Faults.SetObserver(func(site faults.Site, fired bool) {
			evals[site].Inc()
			if fired {
				hits[site].Inc()
			}
		})
	}
	return m
}

// Telemetry exposes the server's metric registry (tests, embedding).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel.reg }

// handleMetricsProm renders the Prometheus text exposition.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.reg.WritePrometheus(w)
}

// handleTrace serves a job's flight-recorder trace as Perfetto-loadable
// Chrome trace_event JSON: live jobs render their partial flight, terminal
// jobs the completed one (also reachable from the bounded ring after the
// job itself ages out).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var f *telemetry.Flight
	s.mu.Lock()
	if j := s.jobs[id]; j != nil {
		f = j.flight
	}
	s.mu.Unlock()
	if f == nil {
		f = s.flights.Get(id)
	}
	if f == nil || f.Len() == 0 {
		notFound(w, fmt.Errorf("serve: no trace recorded for run %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	trace.WriteFlightPerfetto(w, f)
}

// statusWriter captures the response status for instrumentation, passing
// flushes through so SSE streaming keeps working behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-route request counting, latency
// observation, and a debug-level structured access line carrying the
// request id.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.tel.httpLatency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		req := s.reqSeq.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		dur := time.Since(start)
		lat.Observe(dur.Seconds())
		s.tel.httpRequests.With(route, strconv.Itoa(sw.code)).Inc()
		s.log.LogAttrs(r.Context(), slog.LevelDebug, "http request",
			slog.Uint64("req", req),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("code", sw.code),
			slog.Duration("dur", dur))
	}
}

// discardHandler drops every record: the default logger when Config.Logger
// is nil, so embedding servers (and tests) stay quiet unless they opt in.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// logTransition emits the single structured line every job lifecycle
// transition owes the log: queued, running, retrying, done, failed, or
// canceled, always carrying the job id.
func (s *Server) logTransition(j *Job, transition string, attrs ...slog.Attr) {
	all := append([]slog.Attr{
		slog.String("job", j.ID),
		slog.String("transition", transition),
	}, attrs...)
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "job "+transition, all...)
}
