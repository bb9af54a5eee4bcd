package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tinySpec is the test workload: small enough to finish in well under a
// second, with sampling and attribution on so every artifact has content.
const tinySpec = `{"workload":"amr","scale":"tiny","sample_every":256,"attribution":true}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (int, jobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view jobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode submit response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, view
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint returned %d", resp.StatusCode)
	}
	var view jobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		view := getStatus(t, ts, id)
		if view.State == StateDone || view.State == StateFailed {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s did not reach a terminal state", id)
	return jobView{}
}

func getArtifact(t *testing.T, ts *httptest.Server, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + id + "/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s returned %d", name, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitDropped waits for a done run's job record to be retired, after
// which only its cache entry answers for it.
func waitDropped(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		j := s.jobs.m[id]
		s.mu.Unlock()
		if j == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still has a job record (state %s)", id, j.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// checkDoneRunServed asserts that a done run with no job record answers on
// every read endpoint from its cache entry: status (cached, with the
// result), a fresh and a resumed event stream (the terminal snapshot at the
// subscriber's own position, then a closed stream), every artifact, and the
// done listing. trace says whether its flight is still in this process's
// ring: a restarted server has no trace of a run it did not execute.
func checkDoneRunServed(t *testing.T, ts *httptest.Server, id string, trace bool) {
	t.Helper()
	if v := getStatus(t, ts, id); v.State != StateDone || !v.Cached || len(v.Result) == 0 {
		t.Fatalf("status of a done run = %s, cached %v, %d result bytes; want done, cached, with a result",
			v.State, v.Cached, len(v.Result))
	}
	for _, after := range []uint64{0, 7} {
		evs := getEvents(t, ts, id, after)
		if len(evs) != 1 || evs[0].event != "state" || evs[0].id != after ||
			!strings.Contains(evs[0].data, `"state":"done"`) {
			t.Fatalf("events after id %d = %+v, want the done snapshot alone, at id %d", after, evs, after)
		}
	}
	for _, name := range ArtifactNames {
		getArtifact(t, ts, id, name)
	}
	resp, err := http.Get(ts.URL + "/v1/runs?state=done&limit=500")
	if err != nil {
		t.Fatal(err)
	}
	var list runsListView
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(list.Runs, func(v jobView) bool { return v.ID == id && v.State == StateDone }) {
		t.Fatalf("done listing %+v lacks run %s", list.Runs, id)
	}
	resp, err = http.Get(ts.URL + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := map[bool]int{true: http.StatusOK, false: http.StatusNotFound}[trace]; resp.StatusCode != want {
		t.Fatalf("trace of a done run: status %d, want %d", resp.StatusCode, want)
	}
}

// metricsSnapshot is the slice of the /metrics exposition the tests assert
// on.
type metricsSnapshot struct {
	QueueDepth, Running, JobsDone, JobsFailed, Retries int64
	Submissions, Coalesced, CacheHits, CacheMisses     int64
	CacheHitRatio                                      float64
	SimCycles                                          int64
	Sweeps                                             struct {
		Coalesced, Canceled, CellsExpanded, CellsDeduped, CellsScheduled int64
	}
}

// getMetrics scrapes /metrics into a metricsSnapshot.
func getMetrics(t *testing.T, ts *httptest.Server) metricsSnapshot {
	t.Helper()
	body := scrapeProm(t, ts)
	n := func(name string) int64 {
		v, err := strconv.ParseFloat(promValue(t, body, name), 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return int64(v)
	}
	var m metricsSnapshot
	m.QueueDepth, m.Running = n(MetricQueueDepth), n(MetricRunning)
	m.JobsDone, m.JobsFailed, m.Retries = n(MetricJobsDone), n(MetricJobsFailed), n(MetricRetries)
	m.Submissions, m.Coalesced = n(MetricSubmissions), n(MetricCoalesced)
	m.CacheHits, m.CacheMisses = n(MetricCacheHits), n(MetricCacheMisses)
	if looked := m.CacheHits + m.CacheMisses; looked > 0 {
		m.CacheHitRatio = float64(m.CacheHits) / float64(looked)
	}
	m.SimCycles = n(MetricSimCycles)
	m.Sweeps.Coalesced, m.Sweeps.Canceled = n(MetricSweepsCoalesced), n(MetricSweepsCanceled)
	m.Sweeps.CellsExpanded = n(MetricSweepCellsExpanded)
	m.Sweeps.CellsDeduped = n(MetricSweepCellsDeduped)
	m.Sweeps.CellsScheduled = n(MetricSweepCellsScheduled)
	return m
}

// TestSubmitRunCacheHit is the acceptance path: the first submission
// executes; the second identical one is answered from the cache (visible in
// /metrics) without executing again, and both name the same artifacts.
func TestSubmitRunCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.Start()

	code, view := submit(t, ts, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}
	if len(view.ID) != 64 {
		t.Fatalf("run id %q is not a sha256 hex digest", view.ID)
	}
	final := waitTerminal(t, ts, view.ID)
	if final.State != StateDone {
		t.Fatalf("run failed: %s (%s)", final.Error, final.ErrorKind)
	}
	if len(final.Result) == 0 {
		t.Fatal("done view has no embedded result")
	}

	code2, view2 := submit(t, ts, tinySpec)
	if code2 != http.StatusOK {
		t.Fatalf("second submit: status %d, want 200", code2)
	}
	if view2.ID != view.ID {
		t.Fatalf("identical specs got different ids: %s vs %s", view.ID, view2.ID)
	}
	if view2.State != StateDone || len(view2.Result) == 0 {
		t.Fatalf("second submit not served from cache: %+v", view2)
	}

	m := getMetrics(t, ts)
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.JobsDone != 1 {
		t.Fatalf("metrics = hits %d, misses %d, done %d; want 1/1/1 (one execution, one hit)",
			m.CacheHits, m.CacheMisses, m.JobsDone)
	}
	if m.CacheHitRatio != 0.5 {
		t.Fatalf("cache_hit_ratio = %v, want 0.5", m.CacheHitRatio)
	}
	if m.SimCycles == 0 {
		t.Fatal("metrics report zero simulated cycles after a completed run")
	}

	for _, name := range ArtifactNames {
		if len(getArtifact(t, ts, view.ID, name)) == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
}

// TestCachedArtifactsByteIdentical: the same spec computed by two
// independent servers (separate cache directories) yields byte-identical
// artifacts — the determinism contract that makes the cache safe to trust.
func TestCachedArtifactsByteIdentical(t *testing.T) {
	sA, tsA := newTestServer(t, Config{Workers: 1})
	sA.Start()
	sB, tsB := newTestServer(t, Config{Workers: 1})
	sB.Start()

	_, viewA := submit(t, tsA, tinySpec)
	_, viewB := submit(t, tsB, tinySpec)
	if viewA.ID != viewB.ID {
		t.Fatalf("ids diverged: %s vs %s", viewA.ID, viewB.ID)
	}
	if fa := waitTerminal(t, tsA, viewA.ID); fa.State != StateDone {
		t.Fatalf("server A run failed: %s", fa.Error)
	}
	if fb := waitTerminal(t, tsB, viewB.ID); fb.State != StateDone {
		t.Fatalf("server B run failed: %s", fb.Error)
	}
	for _, name := range ArtifactNames {
		a := getArtifact(t, tsA, viewA.ID, name)
		b := getArtifact(t, tsB, viewB.ID, name)
		if !bytes.Equal(a, b) {
			t.Errorf("artifact %s differs between a cached and a fresh run (%d vs %d bytes)",
				name, len(a), len(b))
		}
	}
}

// TestInFlightCoalescing: a submission identical to a job that is still
// running attaches to it instead of executing again.
func TestInFlightCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ready := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testBeforeRun = func(*Job) {
		once.Do(func() { close(ready) })
		<-release
	}
	s.Start()

	code1, view1 := submit(t, ts, tinySpec)
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code1)
	}
	<-ready // the job is now running and held

	code2, view2 := submit(t, ts, tinySpec)
	if code2 != http.StatusOK || view2.ID != view1.ID || view2.State != StateRunning {
		t.Fatalf("second submit did not coalesce: status %d, view %+v", code2, view2)
	}
	close(release)

	if final := waitTerminal(t, ts, view1.ID); final.State != StateDone {
		t.Fatalf("run failed: %s", final.Error)
	}
	m := getMetrics(t, ts)
	if m.Coalesced != 1 || m.JobsDone != 1 || m.Submissions != 2 {
		t.Fatalf("metrics = coalesced %d, done %d, submissions %d; want 1/1/2",
			m.Coalesced, m.JobsDone, m.Submissions)
	}
}

// TestSecondJobRunsWhileFirstHeld: each worker takes the next job as soon
// as it is free. With two workers, a job submitted while the first one is
// still running starts at once instead of waiting for it to finish.
func TestSecondJobRunsWhileFirstHeld(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	held := make(chan struct{})
	release := make(chan struct{})
	releaseFirst := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseFirst) // before the server's Close, which waits for it
	started := make(chan string, 1)
	var calls atomic.Int32
	s.testBeforeRun = func(j *Job) {
		if calls.Add(1) == 1 {
			close(held)
			<-release
			return
		}
		started <- j.ID
	}
	s.Start()

	_, first := submit(t, ts, tinySpec)
	<-held
	_, second := submit(t, ts, `{"workload":"bht","scale":"tiny"}`)
	select {
	case id := <-started:
		if id != second.ID {
			t.Fatalf("started %s, want the second job %s", id, second.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second job did not start while the first was held")
	}
	if v := getStatus(t, ts, first.ID); v.State != StateRunning {
		t.Fatalf("first job state %s while held, want running", v.State)
	}
	releaseFirst()
	for _, id := range []string{first.ID, second.ID} {
		if v := waitTerminal(t, ts, id); v.State != StateDone {
			t.Fatalf("job %s: %+v", id, v)
		}
	}
}

// TestEventsSSE: the events endpoint streams state transitions as SSE and
// terminates once the job is done.
func TestEventsSSE(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ready := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testBeforeRun = func(*Job) {
		once.Do(func() { close(ready) })
		<-release
	}
	s.Start()

	_, view := submit(t, ts, tinySpec)
	<-ready

	resp, err := http.Get(ts.URL + "/v1/runs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	close(release)

	var states []string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var v jobView
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				t.Fatalf("bad state payload: %v", err)
			}
			states = append(states, string(v.State))
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[0] != string(StateRunning) {
		t.Fatalf("states = %v, want a running snapshot first", states)
	}
	if last := states[len(states)-1]; last != string(StateDone) {
		t.Fatalf("states = %v, want a final done event", states)
	}
}

// TestSSEAfterCompletion: attaching to an already-finished job yields the
// terminal snapshot and a closed stream, not a hang.
func TestSSEAfterCompletion(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Start()
	_, view := submit(t, ts, tinySpec)
	waitTerminal(t, ts, view.ID)

	resp, err := http.Get(ts.URL + "/v1/runs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"state":"done"`) {
		t.Fatalf("snapshot stream missing done state: %q", buf.String())
	}
}

func TestSubmitUnknownWorkload(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Start()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != ErrKindBadRequest {
		t.Fatalf("error kind = %q, want %q", body.Kind, ErrKindBadRequest)
	}
	if body.Retryable {
		t.Fatalf("bad-request error marked retryable: %+v", body)
	}
	if len(body.ValidWorkloads) == 0 {
		t.Fatalf("error body does not list valid workloads: %+v", body)
	}
}

func TestSubmitRejectsMalformedSpecs(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Start()
	for _, body := range []string{
		`{not json`,
		`{"workload":"amr","scael":"tiny"}`, // unknown field
		`{"workload":"amr","spec_version":99}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%q): status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsInvalidMachine: a spec whose overrides give an invalid
// machine or exceed a size bound is a structured 400 at submission, not a
// job that panics or allocates without limit once it runs.
func TestSubmitRejectsInvalidMachine(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Start()
	for body, field := range map[string]string{
		`{"workload":"amr","scale":"tiny","scheduler_params":{"cluster_size":2}}`:                 "SMXsPerCluster",
		`{"workload":"amr","scale":"tiny","scheduler_params":{"max_levels":100000}}`:              "max_levels",
		`{"workload":"amr","scale":"tiny","num_smx":100000000}`:                                   "num_smx",
		`{"workload":"amr","scale":"tiny","scheduler":"rr","scheduler_params":{"backup":"free"}}`: "backup",
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("submit(%s): decode error body: %v", body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Kind != ErrKindBadRequest || !strings.Contains(e.Message, field) {
			t.Errorf("submit(%s): status %d, %+v; want a bad-request 400 naming %s", body, resp.StatusCode, e, field)
		}
	}
	if m := getMetrics(t, ts); m.Submissions != 0 {
		t.Errorf("%d rejected specs counted as submissions", m.Submissions)
	}
}

func TestStatusUnknownRun(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Start()
	resp, err := http.Get(ts.URL + "/v1/runs/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestJobDeadline: a per-job wall-clock budget that expires surfaces as a
// structured "deadline" failure, and the failed run is not cached.
func TestJobDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobDeadline: time.Nanosecond})
	s.Start()
	_, view := submit(t, ts, tinySpec)
	final := waitTerminal(t, ts, view.ID)
	if final.State != StateFailed || final.ErrorKind != KindDeadline {
		t.Fatalf("state %s kind %q, want failed/deadline (%s)", final.State, final.ErrorKind, final.Error)
	}
	if st := s.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("failed run was cached: %+v", st)
	}
}

// TestMaxCyclesCap: the server-wide cycle budget maps onto the engine's
// *CycleLimitError ("cycle-limit"), and the capped failure is not cached.
func TestMaxCyclesCap(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxCycles: 100})
	s.Start()
	_, view := submit(t, ts, tinySpec)
	final := waitTerminal(t, ts, view.ID)
	if final.State != StateFailed || final.ErrorKind != KindCycleLimit {
		t.Fatalf("state %s kind %q, want failed/cycle-limit (%s)", final.State, final.ErrorKind, final.Error)
	}
	if st := s.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("cycle-limited run was cached: %+v", st)
	}
}

// TestFailedRunRetries: failures are not cached, so resubmitting the same
// spec executes again rather than replaying the failure.
func TestFailedRunRetries(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxCycles: 100})
	s.Start()
	_, view := submit(t, ts, tinySpec)
	if final := waitTerminal(t, ts, view.ID); final.State != StateFailed {
		t.Fatalf("expected the capped run to fail, got %s", final.State)
	}
	code, view2 := submit(t, ts, tinySpec)
	if code != http.StatusAccepted || view2.ID != view.ID {
		t.Fatalf("resubmit after failure: status %d id %s, want 202 and the same id", code, view2.ID)
	}
	waitTerminal(t, ts, view2.ID)
	if m := getMetrics(t, ts); m.CacheMisses != 2 {
		t.Fatalf("cache_misses = %d, want 2 (both submissions executed)", m.CacheMisses)
	}
}

// TestDrainRejectsNewRuns: after Drain, submissions needing execution get
// 503 while status, artifacts, and cached answers keep working.
func TestDrainRejectsNewRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Start()
	_, view := submit(t, ts, tinySpec)
	waitTerminal(t, ts, view.ID)

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"bht","scale":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	// Cached answers still flow.
	code, cached := submit(t, ts, tinySpec)
	if code != http.StatusOK || cached.State != StateDone {
		t.Fatalf("cached submit while draining: status %d state %s", code, cached.State)
	}
	if getStatus(t, ts, view.ID).State != StateDone {
		t.Fatal("status endpoint broken while draining")
	}
}

// TestQueueFull: submissions beyond the queue depth are shed with 429 +
// Retry-After (a transient, retryable condition — distinct from the 503 a
// draining server answers) instead of blocking the handler, and /readyz
// reports not-ready while saturated.
func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ready := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testBeforeRun = func(*Job) {
		once.Do(func() { close(ready) })
		<-release
	}
	s.Start()
	defer close(release)

	submit(t, ts, tinySpec) // occupies the single worker
	<-ready
	code, _ := submit(t, ts, `{"workload":"bht","scale":"tiny"}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: status %d, want 202 (fills the queue)", code)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"bfs-citation","scale":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	ready2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready2.Body.Close()
	if ready2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while saturated: status %d, want 503", ready2.StatusCode)
	}
}

// TestCloseCancelsRunningJob: shutdown cancellation surfaces as a
// structured "canceled" failure on the in-flight job.
func TestCloseCancelsRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ready := make(chan struct{})
	var once sync.Once
	s.testBeforeRun = func(*Job) {
		once.Do(func() { close(ready) })
		<-s.baseCtx.Done() // hold the job until shutdown lands
	}
	s.Start()
	_, view := submit(t, ts, tinySpec)
	<-ready
	s.Close()
	final := getStatus(t, ts, view.ID)
	if final.State != StateFailed || final.ErrorKind != KindCanceled {
		t.Fatalf("state %s kind %q, want failed/canceled (%s)", final.State, final.ErrorKind, final.Error)
	}
}

// TestCacheSurvivesRestart: a second server over the same cache directory
// serves the run left by the first one and answers the same spec without
// executing.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s1.Start()
	_, view := submit(t, ts1, tinySpec)
	waitTerminal(t, ts1, view.ID)
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s2.Start()
	// A run left by the earlier process answers everywhere but /trace.
	checkDoneRunServed(t, ts2, view.ID, false)
	code, view2 := submit(t, ts2, tinySpec)
	if code != http.StatusOK || view2.State != StateDone || !view2.Cached {
		t.Fatalf("restart submit: status %d, view %+v; want a cached done answer", code, view2)
	}
	if m := getMetrics(t, ts2); m.CacheHits != 1 || m.JobsDone != 0 {
		t.Fatalf("metrics after restart = hits %d, done %d; want 1 hit, 0 executions", m.CacheHits, m.JobsDone)
	}
	// The status and events endpoints also work for disk-only entries.
	if v := getStatus(t, ts2, view.ID); v.State != StateDone {
		t.Fatalf("status of disk-only entry: %+v", v)
	}
}

// TestResubmitAfterEviction: a run is done only while its result verifies
// on disk. Once its cache entry is LRU-evicted, the identical resubmission
// executes again and answers with a result, instead of trusting the stale
// in-process done record.
func TestResubmitAfterEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheMaxBytes: 1})
	s.Start()

	_, a := submit(t, ts, tinySpec)
	if v := waitTerminal(t, ts, a.ID); v.State != StateDone {
		t.Fatalf("run A failed: %s", v.Error)
	}
	_, b := submit(t, ts, `{"workload":"bht","scale":"tiny"}`)
	if v := waitTerminal(t, ts, b.ID); v.State != StateDone {
		t.Fatalf("run B failed: %s", v.Error)
	}
	if _, ok := s.Cache().Lookup(a.ID); ok {
		t.Fatal("run A's entry survived a 1-byte budget")
	}

	code, again := submit(t, ts, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after eviction: status %d state %s, want 202 (re-execute)", code, again.State)
	}
	final := waitTerminal(t, ts, a.ID)
	if final.State != StateDone || len(final.Result) == 0 {
		t.Fatalf("re-executed run = %s with %d result bytes, want done with a result",
			final.State, len(final.Result))
	}
	getArtifact(t, ts, a.ID, ResultArtifact)
	if m := getMetrics(t, ts); m.JobsDone != 3 {
		t.Fatalf("jobs done = %d, want 3 (A, B, A again)", m.JobsDone)
	}
}

// TestCorruptDiskEntryRecomputes: after a restart, looking up a disk-only
// entry whose result.json is corrupt must not register a done record; the
// resubmission then executes and serves a fresh result.
func TestCorruptDiskEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s1.Start()
	_, view := submit(t, ts1, tinySpec)
	if v := waitTerminal(t, ts1, view.ID); v.State != StateDone {
		t.Fatalf("run failed: %s", v.Error)
	}
	ts1.Close()
	s1.Close()
	// Flip the entry file's last byte: the end of result.json, the last
	// artifact written.
	path := filepath.Join(dir, view.ID)
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entry[len(entry)-1] ^= 0x01
	if err := os.WriteFile(path, entry, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s2.Start()
	resp, err := http.Get(ts2.URL + "/v1/runs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status of a corrupt disk-only entry: %d, want 404", resp.StatusCode)
	}

	code, again := submit(t, ts2, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit of a corrupt entry: status %d state %s, want 202 (re-execute)", code, again.State)
	}
	final := waitTerminal(t, ts2, view.ID)
	if final.State != StateDone || len(final.Result) == 0 {
		t.Fatalf("re-executed run = %s with %d result bytes, want done with a result",
			final.State, len(final.Result))
	}
	if m := getMetrics(t, ts2); m.JobsDone != 1 || m.CacheHits != 0 {
		t.Fatalf("metrics = done %d, hits %d; want one execution and no hit", m.JobsDone, m.CacheHits)
	}
}

// TestArtifactEndpointRejections: unknown names and ids 404 without
// touching the filesystem.
func TestArtifactEndpointRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Start()
	for _, path := range []string{
		"/v1/artifacts/" + strings.Repeat("0", 64) + "/result.json", // unknown id
		"/v1/artifacts/" + strings.Repeat("0", 64) + "/secrets.txt", // unknown name
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestConcurrentIdenticalSubmits hammers one spec from many goroutines:
// exactly one execution must happen regardless of interleaving.
func TestConcurrentIdenticalSubmits(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.Start()
	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tinySpec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var v jobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got id %s, others %s", i, ids[i], ids[0])
		}
	}
	waitTerminal(t, ts, ids[0])
	m := getMetrics(t, ts)
	if m.JobsDone != 1 || m.CacheMisses != 1 {
		t.Fatalf("metrics = done %d, misses %d; want exactly one execution", m.JobsDone, m.CacheMisses)
	}
	if m.Coalesced+m.CacheHits != n-1 {
		t.Fatalf("coalesced %d + hits %d != %d", m.Coalesced, m.CacheHits, n-1)
	}
}

// TestHealthz keeps the liveness probe honest.
func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Start()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}
