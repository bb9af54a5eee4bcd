// Command lapermd serves the simulator as an HTTP/JSON service with a
// content-addressed result cache.
//
// Submit a RunSpec and poll it:
//
//	lapermd -addr :8077 -cache-dir /var/cache/lapermd &
//	curl -s -X POST localhost:8077/v1/runs -d '{"workload":"bfs-citation","scale":"tiny"}'
//	curl -s localhost:8077/v1/runs/<id>
//	curl -s localhost:8077/v1/runs/<id>/events        # SSE progress stream
//	curl -s localhost:8077/v1/runs/<id>/trace         # per-job Perfetto trace
//	curl -s localhost:8077/v1/artifacts/<id>/trace.perfetto.json
//	curl -s localhost:8077/metrics                    # Prometheus text
//
// The run ID is the SHA-256 of the spec's canonical form: identical
// submissions coalesce while in flight and are answered from the cache once
// complete, and the engine's bit-determinism makes cached artifacts
// byte-identical to a fresh run's. A run counts as complete only while its
// result.json verifies on disk; an evicted or corrupt entry is recomputed. SIGINT/SIGTERM drain gracefully: new runs
// get 503, queued and running jobs finish (up to -drain-timeout), then the
// listener shuts down.
//
// Logs are structured (log/slog): one Info line per job lifecycle
// transition, Debug access lines with -log-level debug, and -log-format
// json for machine ingestion. -debug-addr starts a separate pprof listener
// (off by default; never mounted on the service address).
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"laperm/internal/faults"
	"laperm/internal/prof"
	"laperm/internal/serve"
)

// newLogger builds the process logger from the -log-format / -log-level
// flags, writing to stderr so service logs never mix with piped output.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, errors.New(`must be "text" or "json"`)
}

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /debug/pprof/ (empty = disabled)")
	cacheDir := flag.String("cache-dir", "lapermd-cache", "content-addressed result cache directory")
	cacheMax := flag.Int64("cache-max-bytes", 0, "cache byte budget, LRU-evicted (0 = unlimited)")
	workers := flag.Int("workers", 0, "max concurrently executing runs (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 256, "max queued-but-unstarted runs before submissions are shed with 429")
	jobDeadline := flag.Duration("job-deadline", 0, "per-run wall-clock budget (0 = unlimited)")
	maxCycles := flag.Uint64("max-cycles", 0, "per-run simulated-cycle cap (0 = none)")
	maxSweepCells := flag.Int("max-sweep-cells", 0, "per-sweep expanded-cell cap accepted by /v1/sweeps (0 = the spec-level limit only)")
	sweepRPS := flag.Float64("sweep-rps", 0, "per-tenant sweep submissions per second before 429 (0 = unlimited)")
	sweepBurst := flag.Int("sweep-burst", 0, "per-tenant sweep submission burst on top of -sweep-rps (0 = 1)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before in-flight runs are canceled")
	retryLimit := flag.Int("retry-limit", 0, "transient-failure retries per run before it fails (0 = default 2, negative = disabled)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	faultSpec := flag.String("faults", "", "fault-injection schedule, e.g. 'serve.cache.write=error:p=0.5:n=2' (default: $"+faults.EnvVar+")")
	faultSeed := flag.Uint64("faults-seed", 0, "deterministic seed for -faults draws (default: $"+faults.EnvSeedVar+", else 1)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		slog.Error("bad logging flags", "error", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	var reg *faults.Registry
	if *faultSpec != "" {
		seed := *faultSeed
		if seed == 0 {
			seed = 1
		}
		r, err := faults.Parse(*faultSpec, seed)
		if err != nil {
			fatal("-faults", err)
		}
		reg = r
	} else {
		r, err := faults.FromEnv()
		if err != nil {
			fatal(faults.EnvVar, err)
		}
		reg = r
	}
	if reg != nil {
		logger.Info("fault injection armed", "spec", reg.Spec(), "seed", reg.Seed())
	}

	srv, err := serve.New(serve.Config{
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		JobDeadline:   *jobDeadline,
		MaxCycles:     *maxCycles,
		MaxSweepCells: *maxSweepCells,
		SweepRPS:      *sweepRPS,
		SweepBurst:    *sweepBurst,
		RetryLimit:    *retryLimit,
		Faults:        reg,
		Logger:        logger,
	})
	if err != nil {
		fatal("open server", err)
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("lapermd listening", "addr", *addr, "cache", *cacheDir)

	var debugSrv *http.Server
	if *debugAddr != "" {
		// Profiling lives on its own listener so it can be bound to
		// localhost while the service address is public.
		debugSrv = &http.Server{Addr: *debugAddr, Handler: prof.DebugMux()}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener", "error", err)
			}
		}()
		logger.Info("pprof debug listener up", "addr", *debugAddr)
	}

	select {
	case err := <-errCh:
		fatal("listen", err)
	case <-ctx.Done():
	}

	logger.Info("draining", "budget", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("drain deadline exceeded, in-flight runs canceled", "error", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("shutdown", "error", err)
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	logger.Info("lapermd stopped")
}
