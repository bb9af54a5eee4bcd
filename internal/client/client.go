// Package client is the resilient Go client for lapermd. It layers the
// retry discipline the service's failure model calls for on top of plain
// net/http:
//
//   - Exponential backoff with deterministic full jitter on retryable HTTP
//     failures (429, 502/503/504, network errors), honoring Retry-After.
//   - Idempotent resubmission: a run is keyed by its RunSpec content hash,
//     so re-POSTing after an ambiguous failure can never duplicate work —
//     the server coalesces or answers from cache. Terminal failures of a
//     retryable kind (transient, panic) are resubmitted the same way,
//     because the server never caches failures.
//   - SSE streams that reconnect on tears and resume from the last event
//     id, so the caller observes every event exactly once.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"laperm/internal/spec"
	"laperm/internal/telemetry"
)

// Client-side metric names, registered when Config.Telemetry is set.
const (
	MetricBackoffs    = "laperm_client_backoffs_total"
	MetricResubmits   = "laperm_client_resubmits_total"
	MetricStreamTears = "laperm_client_stream_tears_total"
)

// Retryable terminal error kinds: failures the server marks as worker
// flakiness rather than properties of the spec. Mirrors the serve package's
// wire kinds (the client deliberately does not import serve).
const (
	KindTransient = "transient"
	KindPanic     = "panic"
)

// RetryableKind reports whether a terminal failure of this kind is worth
// resubmitting.
func RetryableKind(kind string) bool {
	return kind == KindTransient || kind == KindPanic
}

// RunView is the wire representation of a run returned by the submit and
// status endpoints (the server's job view).
type RunView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	Coalesced int64           `json:"coalesced,omitempty"`
	Retries   int64           `json:"retries,omitempty"`
	Error     string          `json:"error,omitempty"`
	ErrorKind string          `json:"error_kind,omitempty"`
	Spec      spec.RunSpec    `json:"spec"`
	Result    json.RawMessage `json:"result,omitempty"`
	Artifacts []string        `json:"artifacts,omitempty"`
}

// Terminal reports whether the run has finished (successfully or not).
func (v RunView) Terminal() bool { return v.State == "done" || v.State == "failed" }

// RunFailedError is a run that reached the failed state: the server's
// structured error kind and message, surfaced as a client error.
type RunFailedError struct {
	ID, Kind, Message string
	// Resubmits counts how many times the client resubmitted before
	// giving up.
	Resubmits int
}

func (e *RunFailedError) Error() string {
	return fmt.Sprintf("client: run %s failed (%s): %s", e.ID, e.Kind, e.Message)
}

// APIError is the server's unified JSON error envelope, attached to every
// non-2xx response: a stable machine-readable kind, a human message, and
// the retry contract.
type APIError struct {
	Kind           string   `json:"kind"`
	Message        string   `json:"message"`
	Retryable      bool     `json:"retryable"`
	RetryAfterSec  int      `json:"retry_after,omitempty"`
	ValidWorkloads []string `json:"valid_workloads,omitempty"`
}

// StatusError is a non-2xx HTTP response that was not retried to success.
type StatusError struct {
	Code int
	Body string
	// API is the parsed error envelope; zero-valued when the body was not
	// an envelope (a proxy's HTML error page, a truncated response).
	API APIError
	// retryAfter carries the server's Retry-After hint as a backoff floor.
	retryAfter time.Duration
}

// newStatusError parses the envelope out of an error response. The
// Retry-After header wins over the envelope's retry_after; either floors
// the client's backoff.
func newStatusError(code int, body []byte, h http.Header) *StatusError {
	e := &StatusError{Code: code, Body: string(body)}
	_ = json.Unmarshal(body, &e.API)
	e.retryAfter = parseRetryAfter(h)
	if e.retryAfter == 0 && e.API.RetryAfterSec > 0 {
		e.retryAfter = time.Duration(e.API.RetryAfterSec) * time.Second
	}
	return e
}

func (e *StatusError) Error() string {
	if e.API.Kind != "" {
		return fmt.Sprintf("client: server returned %d (%s): %s", e.Code, e.API.Kind, e.API.Message)
	}
	return fmt.Sprintf("client: server returned %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// Config configures a Client. The zero value of every field has a usable
// default; only BaseURL is required.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient, when non-nil, replaces http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per HTTP request (first try included);
	// 0 means 5.
	MaxAttempts int
	// ResubmitLimit bounds whole-run resubmissions after terminal
	// retryable failures; 0 means 3, negative disables.
	ResubmitLimit int
	// BaseDelay and MaxDelay shape the backoff: attempt i sleeps a
	// jittered duration in (0, min(MaxDelay, BaseDelay<<i)]. Zero means
	// 50ms and 2s. A server Retry-After floors the delay.
	BaseDelay, MaxDelay time.Duration
	// PollInterval is the status-poll period used by Run; 0 means 10ms.
	PollInterval time.Duration
	// Seed makes the jitter sequence deterministic; 0 means 1.
	Seed uint64
	// Sleep, when non-nil, replaces time.Sleep (tests). It must respect
	// the context's cancellation contract itself only if it blocks
	// forever; the client re-checks ctx after every sleep.
	Sleep func(time.Duration)
	// Telemetry, when non-nil, receives the client's resilience counters
	// (backoff sleeps, run resubmissions, SSE stream tears) — share the
	// server's registry to see both sides in one exposition. Nil keeps
	// every counting site free (nil-safe handles).
	Telemetry *telemetry.Registry
}

// Client is a resilient lapermd client, safe for concurrent use. The
// jitter sequence is a seeded splitmix64 stream advanced atomically, so a
// single-goroutine caller sees a fully deterministic delay sequence and
// concurrent callers interleave it without racing.
type Client struct {
	cfg  Config
	base string
	hc   *http.Client
	// jitterState is the splitmix64 counter; each delay draws one step.
	jitterState atomic.Uint64
	// Resilience counters; nil (and free) without Config.Telemetry.
	backoffs    *telemetry.Counter
	resubmits   *telemetry.Counter
	streamTears *telemetry.Counter
}

// New builds a Client.
func New(cfg Config) *Client {
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	switch {
	case cfg.ResubmitLimit < 0:
		cfg.ResubmitLimit = 0
	case cfg.ResubmitLimit == 0:
		cfg.ResubmitLimit = 3
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 50 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Client{cfg: cfg, base: strings.TrimRight(cfg.BaseURL, "/"), hc: hc}
	c.jitterState.Store(seed)
	if reg := cfg.Telemetry; reg != nil {
		c.backoffs = reg.Counter(MetricBackoffs,
			"Backoff sleeps taken before retrying an HTTP request.")
		c.resubmits = reg.Counter(MetricResubmits,
			"Whole-run resubmissions after terminal retryable failures.")
		c.streamTears = reg.Counter(MetricStreamTears,
			"SSE streams that tore before a terminal event and were resumed.")
	}
	return c
}

// nextJitter draws one value from the seeded splitmix64 stream (the same
// mixer construction the fault registry uses, so delays are deterministic
// per seed).
func (c *Client) nextJitter() uint64 {
	x := c.jitterState.Add(0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay draws the jittered delay for attempt (0-based), floored by
// any server-provided Retry-After.
func (c *Client) backoffDelay(attempt int, retryAfter time.Duration) time.Duration {
	ceil := c.cfg.BaseDelay << uint(attempt)
	if ceil > c.cfg.MaxDelay || ceil <= 0 {
		ceil = c.cfg.MaxDelay
	}
	// Full jitter in (0, ceil]: never zero, so retries always yield.
	d := time.Duration(c.nextJitter()%uint64(ceil)) + 1
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if sl := c.cfg.Sleep; sl != nil {
		sl(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryableStatus classifies HTTP codes worth retrying: shed (429),
// gateway flaps and overload (502/503/504).
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter reads a Retry-After seconds value (0 if absent/invalid).
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do issues one request with backoff-retry on retryable failures and
// returns the final response body and status. The request body is rebuilt
// per attempt from payload (nil for GET).
func (c *Client) do(ctx context.Context, method, path string, payload []byte, header http.Header) (int, http.Header, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			var retryAfter time.Duration
			if se, ok := lastErr.(*StatusError); ok {
				retryAfter = se.retryAfter
			}
			c.backoffs.Inc()
			if err := c.sleep(ctx, c.backoffDelay(attempt-1, retryAfter)); err != nil {
				return 0, nil, nil, err
			}
		}
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return 0, nil, nil, err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		for k, vs := range header {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, nil, ctx.Err()
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			continue // network-level failure: retry
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			lastErr = fmt.Errorf("client: read response: %w", rerr)
			continue
		}
		if retryableStatus(resp.StatusCode) {
			lastErr = newStatusError(resp.StatusCode, data, resp.Header)
			continue
		}
		return resp.StatusCode, resp.Header, data, nil
	}
	return 0, nil, nil, fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// Submit POSTs a spec and returns the server's run view. Safe to call
// repeatedly with the same spec: submission is idempotent by content hash.
func (c *Client) Submit(ctx context.Context, sp spec.RunSpec) (RunView, error) {
	payload, err := json.Marshal(sp)
	if err != nil {
		return RunView{}, err
	}
	return c.submitRaw(ctx, payload)
}

// SubmitRaw is Submit for callers holding the spec as JSON already.
func (c *Client) SubmitRaw(ctx context.Context, specJSON []byte) (RunView, error) {
	return c.submitRaw(ctx, specJSON)
}

func (c *Client) submitRaw(ctx context.Context, payload []byte) (RunView, error) {
	code, hdr, data, err := c.do(ctx, http.MethodPost, "/v1/runs", payload, nil)
	if err != nil {
		return RunView{}, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return RunView{}, newStatusError(code, data, hdr)
	}
	var v RunView
	if err := json.Unmarshal(data, &v); err != nil {
		return RunView{}, fmt.Errorf("client: decode submit response: %w", err)
	}
	return v, nil
}

// Status fetches a run's current view.
func (c *Client) Status(ctx context.Context, id string) (RunView, error) {
	code, hdr, data, err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, nil)
	if err != nil {
		return RunView{}, err
	}
	if code != http.StatusOK {
		return RunView{}, newStatusError(code, data, hdr)
	}
	var v RunView
	if err := json.Unmarshal(data, &v); err != nil {
		return RunView{}, fmt.Errorf("client: decode status: %w", err)
	}
	return v, nil
}

// Artifact fetches one artifact of a completed run.
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	code, hdr, data, err := c.do(ctx, http.MethodGet, "/v1/artifacts/"+id+"/"+name, nil, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, newStatusError(code, data, hdr)
	}
	return data, nil
}

// Run is the resilient end-to-end call: submit, wait for a terminal state,
// and resubmit (up to ResubmitLimit) when the run fails with a retryable
// kind — transient worker failures the server could not absorb itself.
// Returns the final done view, or a *RunFailedError for a persistent or
// non-retryable failure.
func (c *Client) Run(ctx context.Context, sp spec.RunSpec) (RunView, error) {
	payload, err := json.Marshal(sp)
	if err != nil {
		return RunView{}, err
	}
	resubmits := 0
	for {
		v, err := c.submitRaw(ctx, payload)
		if err != nil {
			return RunView{}, err
		}
		for !v.Terminal() {
			if err := c.sleep(ctx, c.cfg.PollInterval); err != nil {
				return RunView{}, err
			}
			if v, err = c.Status(ctx, v.ID); err != nil {
				return RunView{}, err
			}
		}
		if v.State == "done" {
			return v, nil
		}
		if RetryableKind(v.ErrorKind) && resubmits < c.cfg.ResubmitLimit {
			resubmits++
			c.resubmits.Inc()
			if err := c.sleep(ctx, c.backoffDelay(resubmits-1, 0)); err != nil {
				return RunView{}, err
			}
			continue
		}
		return v, &RunFailedError{ID: v.ID, Kind: v.ErrorKind, Message: v.Error, Resubmits: resubmits}
	}
}

// SSEEvent is one server-sent event as delivered to a WatchEvents handler.
type SSEEvent struct {
	// ID is the job-scoped monotonic event id.
	ID uint64
	// Type is the event name: "state", "retry", "sample".
	Type string
	// Data is the raw JSON payload.
	Data json.RawMessage
}

// WatchEvents streams a run's events, reconnecting on stream tears with
// Last-Event-ID so the handler sees every event at most once and no event
// is lost to a dropped connection. It returns nil once a terminal "state"
// event has been delivered, or the first handler/transport error that
// exhausts the reconnect budget.
func (c *Client) WatchEvents(ctx context.Context, id string, handler func(SSEEvent) error) error {
	var lastID uint64
	tears := 0
	for {
		delivered, terminal, err := c.streamOnce(ctx, "/v1/runs/"+id+"/events", &lastID, handler)
		if err != nil {
			return err
		}
		if terminal {
			return nil
		}
		// The stream tore before a terminal state. Progress resets the
		// reconnect budget; repeated zero-progress tears exhaust it.
		c.streamTears.Inc()
		if delivered > 0 {
			tears = 0
		}
		tears++
		if tears >= c.cfg.MaxAttempts {
			return fmt.Errorf("client: event stream for %s tore %d times without completing", id, tears)
		}
		if err := c.sleep(ctx, c.backoffDelay(tears-1, 0)); err != nil {
			return err
		}
	}
}

// streamOnce runs one SSE connection until the stream ends, delivering
// complete frames to handler and advancing *lastID.
func (c *Client) streamOnce(ctx context.Context, path string, lastID *uint64, handler func(SSEEvent) error) (delivered int, terminal bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, false, err
	}
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, false, ctx.Err()
		}
		return 0, false, nil // transport tear: reconnect
	}
	defer resp.Body.Close()
	if retryableStatus(resp.StatusCode) {
		return 0, false, nil // refused for now (a transient cache read, say): reconnect
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return 0, false, newStatusError(resp.StatusCode, body, resp.Header)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var ev SSEEvent
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			n, perr := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if perr == nil {
				ev.ID = n
			}
		case strings.HasPrefix(line, "event: "):
			ev.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = json.RawMessage(strings.TrimPrefix(line, "data: "))
		case line == "":
			if ev.Type == "" {
				continue
			}
			if ev.ID > *lastID {
				*lastID = ev.ID
			}
			if herr := handler(ev); herr != nil {
				return delivered, false, herr
			}
			delivered++
			if ev.Type == "state" {
				var st struct {
					State string `json:"state"`
				}
				if json.Unmarshal(ev.Data, &st) == nil && (st.State == "done" || st.State == "failed") {
					return delivered, true, nil
				}
			}
			ev = SSEEvent{}
		}
	}
	// Scanner errors (connection torn mid-frame) and clean EOFs without a
	// terminal event both mean: reconnect and resume.
	return delivered, false, nil
}
