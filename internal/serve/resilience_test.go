package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"laperm/internal/faults"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    uint64
	event string
	data  string
}

// readSSE parses a full SSE stream (the handler closes it at the terminal
// state).
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	scanner := bufio.NewScanner(body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var evs []sseEvent
	var cur sseEvent
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				evs = append(evs, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// getEvents GETs a job's event stream to completion, optionally resuming
// from a Last-Event-ID.
func getEvents(t *testing.T, ts *httptest.Server, id string, lastEventID uint64) []sseEvent {
	t.Helper()
	return readSSE(t, openEvents(t, ts.URL+"/v1/runs/"+id+"/events", lastEventID).Body)
}

// openEvents attaches to an event stream (the subscription exists once it
// returns), optionally resuming from a Last-Event-ID; the caller reads the
// body. Closed at test cleanup.
func openEvents(t *testing.T, url string, lastEventID uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream: status %d", resp.StatusCode)
	}
	return resp
}

// watchRun submits body to s, whose workers must not be started yet,
// attaches to the run's event stream, starts the workers, and returns
// the view on the stream's terminal "state" event. A done run's record is
// gone by the time a GET could ask, so that event is where its coalesced
// and retries counts are told.
func watchRun(t *testing.T, s *Server, ts *httptest.Server, body string) jobView {
	t.Helper()
	_, view := submit(t, ts, body)
	resp := openEvents(t, ts.URL+"/v1/runs/"+view.ID+"/events", 0)
	s.Start()
	evs := readSSE(t, resp.Body)
	var v jobView
	if len(evs) == 0 || evs[len(evs)-1].event != "state" ||
		json.Unmarshal([]byte(evs[len(evs)-1].data), &v) != nil ||
		(v.State != StateDone && v.State != StateFailed) {
		t.Fatalf("event stream %+v did not end with a terminal state", evs)
	}
	return v
}

// mustParse arms a registry for server fault tests.
func mustParse(t *testing.T, spec string, seed uint64) *faults.Registry {
	t.Helper()
	r, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSSEEventIDsMonotonicAndResume: every published event carries a
// strictly increasing id, and a reconnect with Last-Event-ID while the job
// is live replays exactly the missed suffix (here: everything after the
// first event), ending with the terminal state. Once the run is done its
// record and ring are gone: a later subscriber — fresh, resumed, or caught
// up — gets the terminal snapshot alone, at its own position.
func TestSSEEventIDsMonotonicAndResume(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	held := make(chan *Job)
	release := make(chan struct{})
	s.testBeforeRun = func(j *Job) {
		held <- j
		<-release
	}
	s.Start()
	_, view := submit(t, ts, tinySpec)
	j := <-held
	// The running transition was event 1; two marker events are events 2
	// and 3, published while the job is held.
	for n := range 2 {
		j.publish(Event{Type: "marker", Data: map[string]int{"n": n}})
	}
	resp := openEvents(t, ts.URL+"/v1/runs/"+view.ID+"/events", 1)
	close(release)
	resumed := readSSE(t, resp.Body)
	if len(resumed) < 3 || resumed[0].id != 2 || resumed[0].event != "marker" || resumed[1].id != 3 {
		t.Fatalf("resume from id 1 = %+v, want the marker events 2 and 3 first", resumed)
	}
	prev := uint64(1)
	for _, ev := range resumed {
		if ev.id <= prev {
			t.Fatalf("replayed ids not strictly increasing: %+v", resumed)
		}
		prev = ev.id
	}
	last := resumed[len(resumed)-1]
	if last.event != "state" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("resume did not end with the terminal state: %+v", last)
	}

	waitDropped(t, s, view.ID)
	// Fresh and resumed subscribers (checkDoneRunServed), and one caught up
	// to the very end: the handler states the terminal snapshot so the
	// client still learns the outcome.
	checkDoneRunServed(t, ts, view.ID, true)
	caughtUp := getEvents(t, ts, view.ID, last.id)
	if len(caughtUp) != 1 || caughtUp[0].id != last.id || !strings.Contains(caughtUp[0].data, `"done"`) {
		t.Fatalf("caught-up resume = %+v, want the terminal snapshot at id %d", caughtUp, last.id)
	}
}

// TestServerRetriesTransientFault: a one-shot injected fault (at the cache
// write — a site every attempt must pass; the engine's own poll site is
// exercised in the gpu package, whose workloads are big enough to cross the
// poll throttle) is retried transparently; the job completes, the retry is
// visible on the job's terminal event and in /metrics, and the artifacts are
// byte-identical to a fault-free run of the same spec.
func TestServerRetriesTransientFault(t *testing.T) {
	clean, cleanTS := newTestServer(t, Config{Workers: 1})
	clean.Start()
	_, cv := submit(t, cleanTS, tinySpec)
	if v := waitTerminal(t, cleanTS, cv.ID); v.State != StateDone {
		t.Fatalf("baseline run failed: %+v", v)
	}
	baseline := getArtifact(t, cleanTS, cv.ID, ResultArtifact)

	s, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  mustParse(t, "serve.cache.write=error:n=1", 1),
	})
	final := watchRun(t, s, ts, tinySpec)
	if final.State != StateDone {
		t.Fatalf("faulted run did not recover: %+v", final)
	}
	if final.Retries != 1 {
		t.Errorf("view.Retries = %d, want 1", final.Retries)
	}
	if m := getMetrics(t, ts); m.Retries != 1 || m.JobsFailed != 0 || m.JobsDone != 1 {
		t.Errorf("metrics = retries %d, failed %d, done %d; want 1, 0, 1", m.Retries, m.JobsFailed, m.JobsDone)
	}
	if got := getArtifact(t, ts, final.ID, ResultArtifact); !bytes.Equal(got, baseline) {
		t.Error("result after a retried transient differs from the fault-free baseline")
	}
}

// TestServerContainsInjectedPanic: a panic fault mid-attempt (here in the
// cache commit) is recovered by the attempt — it never unwinds into the
// worker — classifies as transient, and is retried to completion.
func TestServerContainsInjectedPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  mustParse(t, "serve.cache.write=panic:n=1", 1),
	})
	final := watchRun(t, s, ts, tinySpec)
	if final.State != StateDone {
		t.Fatalf("run did not recover from injected panic: %+v", final)
	}
	if final.Retries != 1 {
		t.Errorf("view.Retries = %d, want 1", final.Retries)
	}
}

// TestServerRetriesCacheWriteFault: a transient cache-write failure after a
// successful simulation is retried end to end (the attempt re-executes and
// re-commits) and the job still completes.
func TestServerRetriesCacheWriteFault(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  mustParse(t, "serve.cache.write=error:n=1", 1),
	})
	final := watchRun(t, s, ts, tinySpec)
	if final.State != StateDone {
		t.Fatalf("run did not recover from cache-write fault: %+v", final)
	}
	if final.Retries != 1 {
		t.Errorf("view.Retries = %d, want 1", final.Retries)
	}
}

// TestRetryLimitExhaustedFailsTransient: when the fault schedule outlasts
// the retry budget, the job fails with the structured transient kind — a
// signal the client may resubmit.
func TestRetryLimitExhaustedFailsTransient(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:    1,
		RetryLimit: 1,
		Faults:     mustParse(t, "serve.cache.write=error:n=10", 1),
	})
	s.Start()
	_, view := submit(t, ts, tinySpec)
	final := waitTerminal(t, ts, view.ID)
	if final.State != StateFailed || final.ErrorKind != KindTransient {
		t.Fatalf("state %s kind %q, want failed/transient", final.State, final.ErrorKind)
	}
	if m := getMetrics(t, ts); m.Retries != 1 {
		t.Errorf("metrics.Retries = %d, want 1 (the budget)", m.Retries)
	}

	// Failures are never cached and the schedule is spent (n=10 burns on
	// the retry chain only up to the budget; exhaust the rest first), so a
	// resubmission re-executes. Drain the remaining fault charges by
	// resubmitting until clean.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, v := submit(t, ts, tinySpec)
		v = waitTerminal(t, ts, v.ID)
		if v.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resubmissions never converged after fault exhaustion")
		}
	}
}

// TestCellFaultFailsJobWithTransientKind: with retries off, a fault at the
// cell site fails the job with the classified transient cause — not a
// bogus "canceled" — and a resubmission converges.
func TestCellFaultFailsJobWithTransientKind(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:    1,
		RetryLimit: -1,
		Faults:     mustParse(t, "exp.cell.run=error:n=1", 1),
	})
	s.Start()
	_, view := submit(t, ts, tinySpec)
	final := waitTerminal(t, ts, view.ID)
	if final.State != StateFailed || final.ErrorKind != KindTransient {
		t.Fatalf("state %s kind %q, want failed/transient", final.State, final.ErrorKind)
	}
	_, v2 := submit(t, ts, tinySpec)
	if final2 := waitTerminal(t, ts, v2.ID); final2.State != StateDone {
		t.Fatalf("resubmit after cell fault: %+v", final2)
	}
}

// TestCellFaultRetriedWithinJob: under the default retry limit, error and
// panic faults at the cell site are retried inside the job like any other
// attempt failure: the run completes without a resubmission.
func TestCellFaultRetriedWithinJob(t *testing.T) {
	for _, kind := range []string{"error", "panic"} {
		t.Run(kind, func(t *testing.T) {
			s, ts := newTestServer(t, Config{
				Workers: 1,
				Faults:  mustParse(t, "exp.cell.run="+kind+":n=1", 1),
			})
			final := watchRun(t, s, ts, tinySpec)
			if final.State != StateDone || final.Retries != 1 {
				t.Fatalf("state %s retries %d, want done after 1 retry", final.State, final.Retries)
			}
			if m := getMetrics(t, ts); m.CacheMisses != 1 || m.JobsFailed != 0 {
				t.Fatalf("cache_misses %d jobs_failed %d, want 1 submission executed and no failure",
					m.CacheMisses, m.JobsFailed)
			}
		})
	}
}

// TestSubmitFaultShedsRetryably: an injected submit failure answers 503
// with Retry-After (the server "died" mid-accept); the identical retry
// succeeds because submission is idempotent by content hash.
func TestSubmitFaultShedsRetryably(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  mustParse(t, "serve.submit=error:n=1", 1),
	})
	s.Start()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit under fault: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("injected submit failure missing Retry-After")
	}
	code, view := submit(t, ts, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("retry submit: status %d, want 202", code)
	}
	if v := waitTerminal(t, ts, view.ID); v.State != StateDone {
		t.Fatalf("retried submission failed: %+v", v)
	}
}

// TestSSEFlushFaultDropsStreamResumable: an injected flush fault tears the
// event stream (zero or partial frames); reconnecting — with the ids the
// client did receive — completes the story.
func TestSSEFlushFaultDropsStreamResumable(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  mustParse(t, "serve.sse.flush=error:n=1", 1),
	})
	s.Start()
	_, view := submit(t, ts, tinySpec)
	waitTerminal(t, ts, view.ID)

	torn := getEvents(t, ts, view.ID, 0)
	if len(torn) != 0 {
		t.Fatalf("flush fault on the first frame should tear before any event, got %+v", torn)
	}
	resumed := getEvents(t, ts, view.ID, 0)
	if len(resumed) != 1 || !strings.Contains(resumed[0].data, `"done"`) {
		t.Fatalf("reconnect after tear = %+v, want the terminal snapshot", resumed)
	}
}

// TestReadyzLifecycle: /readyz is ready while serving, not-ready while
// draining; /healthz stays 200 throughout (liveness must not kill a
// draining server).
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Start()
	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/readyz", http.StatusOK)
	check("/healthz", http.StatusOK)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	check("/readyz", http.StatusServiceUnavailable)
	check("/healthz", http.StatusOK)
}

// TestEventStreamMidRunCarriesIDs: attaching mid-run yields a snapshot and
// then live events whose ids strictly increase from the snapshot's.
func TestEventStreamMidRunCarriesIDs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ready := make(chan struct{})
	release := make(chan struct{})
	released := false
	s.testBeforeRun = func(*Job) {
		if !released {
			released = true
			close(ready)
			<-release
		}
	}
	s.Start()
	_, view := submit(t, ts, tinySpec)
	<-ready
	resp, err := http.Get(ts.URL + "/v1/runs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(release)
	evs := readSSE(t, resp.Body)
	if len(evs) < 2 {
		t.Fatalf("stream = %+v, want snapshot plus at least the done transition", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].id <= evs[i-1].id {
			t.Fatalf("ids not strictly increasing: %s", fmt.Sprint(evs))
		}
	}
	last := evs[len(evs)-1]
	if last.event != "state" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("stream did not end with done: %+v", last)
	}
}
