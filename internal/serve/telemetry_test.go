package serve

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"laperm/internal/faults"
)

// scrapeProm fetches /metrics and returns the body after validating the
// text exposition's structural invariants: every sample belongs to a family
// with exactly one HELP and one TYPE line, and no series repeats.
func scrapeProm(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	validateProm(t, string(body))
	return string(body)
}

// validateProm checks Prometheus text-format invariants.
func validateProm(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{} // family -> type
	helped := map[string]bool{}
	seen := map[string]bool{} // full series key
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			if helped[name] {
				t.Fatalf("duplicate HELP for %s", name)
			}
			helped[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if typed[f[2]] != "" {
				t.Fatalf("duplicate TYPE for %s", f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key := line[:sp]
		if seen[key] {
			t.Fatalf("duplicate series %q", key)
		}
		seen[key] = true
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if typed[name] == "" && typed[base] == "" {
			t.Fatalf("sample %q has no TYPE comment", name)
		}
	}
}

// promValue extracts one unlabeled sample's value from an exposition.
func promValue(t *testing.T, body, name string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("exposition has no sample %q:\n%s", name, body)
	return ""
}

// TestPrometheusExposition runs one job to completion and checks the scrape
// covers the acceptance surface: job counts, queue, cache, latency
// histograms, HTTP requests — all in valid text format.
func TestPrometheusExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.Start()

	_, view := submit(t, ts, tinySpec)
	waitTerminal(t, ts, view.ID)
	submit(t, ts, tinySpec) // cache hit

	body := scrapeProm(t, ts)
	if got := promValue(t, body, MetricJobsDone); got != "1" {
		t.Fatalf("%s = %s, want 1", MetricJobsDone, got)
	}
	if got := promValue(t, body, MetricSubmissions); got != "2" {
		t.Fatalf("%s = %s, want 2", MetricSubmissions, got)
	}
	if got := promValue(t, body, MetricCacheHits); got != "1" {
		t.Fatalf("%s = %s, want 1", MetricCacheHits, got)
	}
	if got := promValue(t, body, MetricQueueWait+"_count"); got != "1" {
		t.Fatalf("queue wait count = %s, want 1", got)
	}
	if got := promValue(t, body, MetricRunSeconds+"_count"); got != "1" {
		t.Fatalf("run seconds count = %s, want 1", got)
	}
	for _, name := range []string{
		MetricQueueDepth, MetricRunning, MetricJobsFailed, MetricRetries,
		MetricShed, MetricCoalesced, MetricCacheMisses, MetricCacheEntries,
		MetricCacheBytes, MetricCacheReadB, MetricCacheWrittenB,
		MetricCacheEvictions, MetricCacheCorrupt, MetricSimCycles,
		MetricUptime, MetricDraining, MetricWorkers, MetricPoolBusy,
	} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("exposition missing family %s", name)
		}
	}
	// Per-route HTTP series: the submit route must have counted.
	if !strings.Contains(body, MetricHTTPRequests+`{route="/v1/runs",code="202"} 1`) {
		t.Errorf("missing instrumented submit request:\n%s", body)
	}
	if !strings.Contains(body, MetricHTTPLatency+`_bucket{route="/v1/runs",le="+Inf"}`) {
		t.Errorf("missing http latency histogram for submit route")
	}
	// The cache committed artifacts, so written bytes must be non-zero.
	if got := promValue(t, body, MetricCacheWrittenB); got == "0" {
		t.Errorf("%s = 0 after a completed run", MetricCacheWrittenB)
	}

	// The test snapshot parses the same exposition.
	m := getMetrics(t, ts)
	if m.JobsDone != 1 || m.Submissions != 2 || m.CacheHits != 1 {
		t.Fatalf("metrics snapshot mismatch: %+v", m)
	}
}

// TestTraceEndpoint pins the flight recorder: a completed job serves a
// Perfetto trace whose queue and run spans account for the submit-to-done
// wall time, with the engine phases on their own track.
func TestTraceEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Start()

	before := time.Now()
	_, view := submit(t, ts, tinySpec)
	waitTerminal(t, ts, view.ID)
	wall := time.Since(before)

	resp, err := http.Get(ts.URL + "/v1/runs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint returned %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[string]uint64{} // name -> dur
	ends := map[string]uint64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name] = ev.Dur
			ends[ev.Name] = ev.Ts + ev.Dur
		}
	}
	for _, want := range []string{"queue", "run", "attempt 1", "build", "gpu.simulate", "gpu.result", "artifacts"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("trace missing span %q (have %v)", want, spans)
		}
	}
	// queue + run must account for the job's wall time: the run span ends
	// within the observed submit-to-done window.
	if end := time.Duration(ends["run"]) * time.Microsecond; end > wall+time.Second {
		t.Errorf("run span ends at %v, beyond observed wall %v", end, wall)
	}
	if spans["run"] == 0 {
		t.Error("run span has zero duration")
	}

	if resp, err := http.Get(ts.URL + "/v1/runs/ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff/trace"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown run trace returned %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestFaultAndRetryCountersExposed pins the satellite requirement: counters
// that previously never reached an exposition — per-site fault hits, retry
// totals — are visible in /metrics.
func TestFaultAndRetryCountersExposed(t *testing.T) {
	reg, err := faults.Parse("serve.cache.write=error:n=1", 7)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Faults: reg})

	final := watchRun(t, s, ts, tinySpec)
	if final.State != StateDone {
		t.Fatalf("run failed: %s (%s)", final.Error, final.ErrorKind)
	}
	if final.Retries == 0 {
		t.Fatal("injected cache-write fault did not cause a retry")
	}

	body := scrapeProm(t, ts)
	if !strings.Contains(body, MetricFaultHits+`{site="serve.cache.write"} 1`) {
		t.Errorf("fault hit counter missing:\n%s", body)
	}
	if !strings.Contains(body, MetricFaultEvals+`{site="serve.cache.write"}`) {
		t.Errorf("fault evals counter missing")
	}
	if got := promValue(t, body, MetricRetries); got != "1" {
		t.Errorf("%s = %s, want 1", MetricRetries, got)
	}
	m := getMetrics(t, ts)
	if m.Retries != 1 {
		t.Errorf("snapshot retries = %d, want 1", m.Retries)
	}
}

// TestDrainingVisibleInExposition: the drain gauge flips to 1 once the
// server stops accepting work.
func TestDrainingVisibleInExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Start()
	if got := promValue(t, scrapeProm(t, ts), MetricDraining); got != "0" {
		t.Fatalf("draining = %s before drain", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := promValue(t, scrapeProm(t, ts), MetricDraining); got != "1" {
		t.Fatalf("draining = %s after drain, want 1", got)
	}
}

// recordingHandler captures slog records for assertion.
type recordingHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r.Clone())
	h.mu.Unlock()
	return nil
}
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler      { return h }

// transitions returns the captured "job <transition>" lines for one job id.
func (h *recordingHandler) transitions(jobID string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, r := range h.recs {
		if !strings.HasPrefix(r.Message, "job ") {
			continue
		}
		match := false
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "job" && a.Value.String() == jobID {
				match = true
			}
			return true
		})
		if match {
			out = append(out, strings.TrimPrefix(r.Message, "job "))
		}
	}
	return out
}

// TestLifecycleLogLines pins the structured-logging satellite: each
// lifecycle transition emits exactly one Info line carrying the job id.
func TestLifecycleLogLines(t *testing.T) {
	h := &recordingHandler{}
	s, ts := newTestServer(t, Config{Workers: 1, Logger: slog.New(h)})
	s.Start()

	_, view := submit(t, ts, tinySpec)
	final := waitTerminal(t, ts, view.ID)
	if final.State != StateDone {
		t.Fatalf("run failed: %s", final.Error)
	}
	got := h.transitions(view.ID)
	want := []string{"queued", "running", "done"}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", got, want)
		}
	}
}

// TestRetryLifecycleLog: a retried job logs exactly one retrying line per
// attempt that failed retryably, then done.
func TestRetryLifecycleLog(t *testing.T) {
	reg, err := faults.Parse("serve.cache.write=error:n=1", 7)
	if err != nil {
		t.Fatal(err)
	}
	h := &recordingHandler{}
	s, ts := newTestServer(t, Config{Workers: 1, Faults: reg, Logger: slog.New(h)})
	s.Start()

	_, view := submit(t, ts, tinySpec)
	final := waitTerminal(t, ts, view.ID)
	if final.State != StateDone {
		t.Fatalf("run failed: %s", final.Error)
	}
	got := h.transitions(view.ID)
	want := []string{"queued", "running", "retrying", "done"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

// TestDoneJobFlightMovesToRing: once a job is done its record is gone —
// its cache entry answers for the run — and its flight lives only in the
// bounded ring of recent terminal jobs, from which the trace endpoint
// still serves it.
func TestDoneJobFlightMovesToRing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Start()
	_, view := submit(t, ts, tinySpec)
	if v := waitTerminal(t, ts, view.ID); v.State != StateDone {
		t.Fatalf("run failed: %s", v.Error)
	}
	waitDropped(t, s, view.ID)
	if s.flights.Get(view.ID) == nil {
		t.Fatal("done job's flight is not in the ring")
	}
	checkDoneRunServed(t, ts, view.ID, true)
}
