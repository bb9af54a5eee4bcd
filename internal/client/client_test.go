package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"laperm/internal/spec"
)

// testSpec is a minimal valid spec for wire tests (the stub servers don't
// validate it).
var testSpec = spec.RunSpec{Workload: "amr", Scale: "tiny"}

// newClient builds a client against ts with instant (recorded) sleeps.
func newClient(ts *httptest.Server, mut func(*Config)) (*Client, *[]time.Duration) {
	var mu sync.Mutex
	slept := &[]time.Duration{}
	cfg := Config{
		BaseURL: ts.URL,
		Seed:    1,
		Sleep: func(d time.Duration) {
			mu.Lock()
			*slept = append(*slept, d)
			mu.Unlock()
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg), slept
}

func doneView(id string) RunView {
	return RunView{ID: id, State: "done", Result: json.RawMessage(`{"cycles":1}`)}
}

func writeView(w http.ResponseWriter, status int, v RunView) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// TestSubmitRetriesRetryableStatuses: 503 and 429 answers are retried with
// backoff until the server accepts; the Retry-After hint floors the delay.
func TestSubmitRetriesRetryableStatuses(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "3")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
		case 2:
			http.Error(w, `{"error":"flap"}`, http.StatusServiceUnavailable)
		default:
			writeView(w, http.StatusAccepted, RunView{ID: "abc", State: "queued"})
		}
	}))
	defer ts.Close()
	c, slept := newClient(ts, nil)
	v, err := c.Submit(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "abc" || calls.Load() != 3 {
		t.Fatalf("view %+v after %d calls", v, calls.Load())
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %v, want 2 backoffs", *slept)
	}
	if (*slept)[0] < 3*time.Second {
		t.Errorf("first backoff %v ignored Retry-After: 3", (*slept)[0])
	}
}

// TestSubmitGivesUpAfterMaxAttempts: persistent shedding exhausts the
// attempt budget and surfaces the last status error.
func TestSubmitGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"full"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, _ := newClient(ts, func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err := c.Submit(context.Background(), testSpec)
	if err == nil {
		t.Fatal("submit against a permanently shedding server succeeded")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped 503 StatusError", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want exactly MaxAttempts=3", calls.Load())
	}
}

// TestSubmitDoesNotRetryBadRequest: a 400 is the caller's bug, not a
// transient — exactly one attempt.
func TestSubmitDoesNotRetryBadRequest(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	c, _ := newClient(ts, nil)
	_, err := c.Submit(context.Background(), testSpec)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 StatusError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was retried: %d calls", calls.Load())
	}
}

// TestBackoffDeterministicPerSeed: same seed, same jittered delay sequence;
// different seed, a different one. Delays stay within (0, ceil] and the
// ceiling doubles per attempt up to MaxDelay.
func TestBackoffDeterministicPerSeed(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		c := New(Config{BaseURL: "http://x", Seed: seed,
			BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second})
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, c.backoffDelay(i, 0))
		}
		return out
	}
	a, b, c2 := seq(7), seq(7), seq(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
		ceil := 50 * time.Millisecond << uint(i)
		if ceil > 2*time.Second {
			ceil = 2 * time.Second
		}
		if a[i] <= 0 || a[i] > ceil {
			t.Fatalf("delay[%d] = %v outside (0, %v]", i, a[i], ceil)
		}
	}
	same := true
	for i := range a {
		if a[i] != c2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

// TestRunResubmitsTerminalTransient: a run that lands failed/transient is
// resubmitted (idempotent by content hash) until the server reports done.
func TestRunResubmitsTerminalTransient(t *testing.T) {
	var submits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			if submits.Add(1) <= 2 {
				writeView(w, http.StatusOK, RunView{
					ID: "abc", State: "failed", ErrorKind: "transient", Error: "injected",
				})
				return
			}
			writeView(w, http.StatusOK, doneView("abc"))
			return
		}
		writeView(w, http.StatusOK, doneView("abc"))
	}))
	defer ts.Close()
	c, _ := newClient(ts, nil)
	v, err := c.Run(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" || submits.Load() != 3 {
		t.Fatalf("state %s after %d submits, want done after 3", v.State, submits.Load())
	}
}

// TestRunDoesNotResubmitDeterministicFailure: a deadlock is a property of
// the spec; resubmitting would loop forever, so the client must not.
func TestRunDoesNotResubmitDeterministicFailure(t *testing.T) {
	var submits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		writeView(w, http.StatusOK, RunView{
			ID: "abc", State: "failed", ErrorKind: "deadlock", Error: "circular wait",
		})
	}))
	defer ts.Close()
	c, _ := newClient(ts, nil)
	_, err := c.Run(context.Background(), testSpec)
	var rfe *RunFailedError
	if !errors.As(err, &rfe) || rfe.Kind != "deadlock" {
		t.Fatalf("err = %v, want *RunFailedError with kind deadlock", err)
	}
	if submits.Load() != 1 {
		t.Fatalf("deterministic failure resubmitted: %d submits", submits.Load())
	}
}

// TestRunGivesUpAfterResubmitLimit: persistent transients stop at the
// resubmit budget with the structured failure.
func TestRunGivesUpAfterResubmitLimit(t *testing.T) {
	var submits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		writeView(w, http.StatusOK, RunView{
			ID: "abc", State: "failed", ErrorKind: "transient", Error: "injected",
		})
	}))
	defer ts.Close()
	c, _ := newClient(ts, func(cfg *Config) { cfg.ResubmitLimit = 2 })
	_, err := c.Run(context.Background(), testSpec)
	var rfe *RunFailedError
	if !errors.As(err, &rfe) {
		t.Fatalf("err = %v, want *RunFailedError", err)
	}
	if rfe.Resubmits != 2 {
		t.Errorf("Resubmits = %d, want 2", rfe.Resubmits)
	}
	if submits.Load() != 3 {
		t.Fatalf("%d submits, want 1 + 2 resubmits", submits.Load())
	}
}

// TestRunPollsUntilTerminal: a queued/running run is polled via the status
// endpoint until done.
func TestRunPollsUntilTerminal(t *testing.T) {
	var statusCalls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			writeView(w, http.StatusAccepted, RunView{ID: "abc", State: "queued"})
			return
		}
		if statusCalls.Add(1) < 3 {
			writeView(w, http.StatusOK, RunView{ID: "abc", State: "running"})
			return
		}
		writeView(w, http.StatusOK, doneView("abc"))
	}))
	defer ts.Close()
	c, _ := newClient(ts, nil)
	v, err := c.Run(context.Background(), testSpec)
	if err != nil || v.State != "done" {
		t.Fatalf("Run = %+v, %v", v, err)
	}
	if statusCalls.Load() != 3 {
		t.Fatalf("polled %d times, want 3", statusCalls.Load())
	}
}

// sseFrame prints one SSE frame.
func sseFrame(id uint64, event, data string) string {
	return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
}

// TestWatchEventsResumesFromLastEventID: the stream tears after two events,
// and the first reconnect is refused with a retryable 503; the next
// reconnect must carry Last-Event-ID: 2 and the handler must see ids 1..4
// exactly once, ending with the terminal state.
func TestWatchEventsResumesFromLastEventID(t *testing.T) {
	var conns atomic.Int32
	var resumeHeader atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch conns.Add(1) {
		case 1:
			// Two events, then a tear (no terminal state).
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, sseFrame(1, "state", `{"state":"running"}`))
			fmt.Fprint(w, sseFrame(2, "progress", `{"done":0}`))
		case 2:
			http.Error(w, `{"kind":"transient","retryable":true}`, http.StatusServiceUnavailable)
		default:
			w.Header().Set("Content-Type", "text/event-stream")
			resumeHeader.Store(r.Header.Get("Last-Event-ID"))
			fmt.Fprint(w, sseFrame(3, "sample", `{"cycle":512}`))
			fmt.Fprint(w, sseFrame(4, "state", `{"state":"done"}`))
		}
	}))
	defer ts.Close()
	c, _ := newClient(ts, nil)
	var got []uint64
	err := c.WatchEvents(context.Background(), "abc", func(ev SSEEvent) error {
		got = append(got, ev.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("handler saw ids %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("handler saw ids %v, want %v", got, want)
		}
	}
	if h := resumeHeader.Load(); h != "2" {
		t.Fatalf("reconnect sent Last-Event-ID %q, want \"2\"", h)
	}
}

// TestWatchEventsGivesUpOnZeroProgressTears: a stream that tears before
// delivering anything, repeatedly, exhausts the reconnect budget instead of
// looping forever.
func TestWatchEventsGivesUpOnZeroProgressTears(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		// Tear immediately: no frames.
	}))
	defer ts.Close()
	c, _ := newClient(ts, func(cfg *Config) { cfg.MaxAttempts = 3 })
	err := c.WatchEvents(context.Background(), "abc", func(SSEEvent) error { return nil })
	if err == nil {
		t.Fatal("WatchEvents on a dead stream returned nil")
	}
	if conns.Load() != 3 {
		t.Fatalf("connected %d times, want MaxAttempts=3", conns.Load())
	}
}

// TestWatchEventsStopsOnHandlerError: a handler error aborts the watch
// without reconnecting.
func TestWatchEventsStopsOnHandlerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, sseFrame(1, "state", `{"state":"running"}`))
		fmt.Fprint(w, sseFrame(2, "state", `{"state":"done"}`))
	}))
	defer ts.Close()
	c, _ := newClient(ts, nil)
	boom := errors.New("boom")
	err := c.WatchEvents(context.Background(), "abc", func(SSEEvent) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the handler's error", err)
	}
}

// TestContextCancelsRetryLoop: cancellation interrupts the backoff sleep
// promptly and surfaces ctx.Err.
func TestContextCancelsRetryLoop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"full"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	c := New(Config{BaseURL: ts.URL, Seed: 1, Sleep: func(time.Duration) { cancel() }})
	_, err := c.Submit(ctx, testSpec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
