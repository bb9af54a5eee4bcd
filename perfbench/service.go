package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"laperm/internal/client"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/serve"
	"laperm/internal/spec"
)

// svcWorkers is lapermd's worker count in service-mix, matching the two
// cores of the machine the benchmark was sized on.
const svcWorkers = 2

// svcInstance runs service-mix: an in-process lapermd on a loopback
// listener and two closed-loop clients, A and B, each on its own single
// connection, that run the steps of svcPlan in lockstep.
type svcInstance struct {
	plan    *svcPlan
	ref     map[string]string
	dir     string
	srv     *serve.Server
	ts      *httptest.Server
	hc      [2]*http.Client
	clients [2]*client.Client
}

func startService(seed uint64, workdir string) (instance, time.Duration, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, 0, err
	}
	build := buildPrograms(kernels.ScaleTiny)
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(workdir, "lapermd-cache-")
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{CacheDir: dir, Workers: svcWorkers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	srv.Start()
	s := &svcInstance{plan: newSvcPlan(seed), ref: ref.Tiny, dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}
	for i := range s.clients {
		s.hc[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		s.clients[i] = client.New(client.Config{BaseURL: s.ts.URL, HTTPClient: s.hc[i]})
	}
	return s, build, nil
}

func (s *svcInstance) blockLen() int { return s.plan.blockLen() }

func (s *svcInstance) close() error {
	for _, hc := range s.hc {
		hc.CloseIdleConnections()
	}
	s.ts.Close()
	s.srv.Close()
	return os.RemoveAll(s.dir)
}

// step runs both clients' parts of step i and returns their samples.
func (s *svcInstance) step(ctx context.Context, i int, tr *tracer) []sample {
	st := s.plan.at(i)
	var out [2]sample
	var wg sync.WaitGroup
	wg.Add(2)
	switch st.Kind {
	case stepCoalesce:
		posted := make(chan struct{})
		go func() { defer wg.Done(); out[0] = s.run(ctx, i, 0, st.A, posted, tr) }()
		go func() { defer wg.Done(); <-posted; out[1] = s.run(ctx, i, 1, st.B, nil, tr) }()
	case stepSweep:
		go func() { defer wg.Done(); out[0] = s.sweep(ctx, i, 0, st.Sweeps[0], tr) }()
		go func() { defer wg.Done(); out[1] = s.sweep(ctx, i, 1, st.Sweeps[1], tr) }()
	default:
		go func() { defer wg.Done(); out[0] = s.run(ctx, i, 0, st.A, nil, tr) }()
		go func() { defer wg.Done(); out[1] = s.run(ctx, i, 1, st.B, nil, tr) }()
	}
	wg.Wait()
	return out[:]
}

// classify names a run op by the server's answer to its POST.
func classify(v client.RunView) string {
	switch {
	case v.State == "done":
		return "cached"
	case v.Coalesced > 0:
		return "coalesced"
	}
	return "cold"
}

var clientNames = [2]string{"A", "B"}

// run submits one run as client who, waits for its terminal state over SSE,
// fetches result.json and checks it. posted, when non-nil, is closed once
// the POST has returned.
func (s *svcInstance) run(ctx context.Context, step, who int, op runOp, posted chan struct{}, tr *tracer) sample {
	cl := s.clients[who]
	start := time.Now()
	v, err := cl.Submit(ctx, op.spec())
	postEnd := time.Now()
	if posted != nil {
		close(posted)
	}
	if err != nil {
		return sample{class: "cold", dur: postEnd.Sub(start), err: fmt.Errorf("%s: %w", op.Cell.key(), err)}
	}
	class := classify(v)
	state, errMsg := v.State, v.Error
	if !v.Terminal() {
		err = cl.WatchEvents(ctx, v.ID, func(ev client.SSEEvent) error {
			if ev.Type != "state" {
				return nil
			}
			var view client.RunView
			if err := json.Unmarshal(ev.Data, &view); err != nil {
				return err
			}
			state, errMsg = view.State, view.Error
			return nil
		})
	}
	waitEnd := time.Now()
	if err == nil && state != "done" {
		err = fmt.Errorf("run ended %s: %s", state, errMsg)
	}
	var raw []byte
	if err == nil {
		raw, err = cl.Artifact(ctx, v.ID, serve.ResultArtifact)
	}
	end := time.Now()
	var res *gpu.Result
	if err == nil {
		res, err = decodeResult(raw)
	}
	if err == nil {
		err = check(s.ref, op.Cell.key(), resultDigest(res))
	}
	if err != nil {
		err = fmt.Errorf("%s@%d: %w", op.Cell.key(), op.MaxCycles, err)
	}
	if tr != nil {
		name := clientNames[who]
		f := tr.flight(fmt.Sprintf("%d%s %s", step, name, op.Cell.key()))
		tr.span(f, name, "bench", "op", start, end)
		tr.span(f, name, "client", "post", start, postEnd)
		tr.span(f, name, "client", "wait", postEnd, waitEnd)
		tr.span(f, name, "client", "result_get", waitEnd, end)
		if class == "cold" && err == nil {
			// Only the request that caused the execution carries its
			// server flight and simulated counts.
			tr.addRun(res, nil)
			if ferr := s.mergeServerFlight(ctx, who, v.ID, op.Cell.key(), start, end, tr); ferr != nil {
				err = ferr
			}
		}
	}
	return sample{class: class, dur: end.Sub(start), err: err}
}

// sweep submits a sweep as client who, waits for it over SSE and fetches
// cells.csv; then, off the clock, it checks every cell's result.
func (s *svcInstance) sweep(ctx context.Context, step, who int, op sweepOp, tr *tracer) sample {
	cl := s.clients[who]
	start := time.Now()
	v, err := cl.SubmitSweep(ctx, op.spec())
	postEnd := time.Now()
	if err == nil && !v.Terminal() {
		err = cl.WatchSweep(ctx, v.ID, func(client.SSEEvent) error { return nil })
	}
	waitEnd := time.Now()
	if err == nil {
		_, err = cl.SweepArtifact(ctx, v.ID, serve.SweepCellsArtifact)
	}
	end := time.Now()
	if err == nil {
		err = s.checkSweep(ctx, cl, v.ID, op)
	}
	if err != nil {
		err = fmt.Errorf("sweep %v@%d: %w", op.Workloads, op.MaxCycles, err)
	}
	if tr != nil {
		name := clientNames[who]
		f := tr.flight(fmt.Sprintf("%d%s sweep %v", step, name, op.Workloads))
		tr.span(f, name, "bench", "op", start, end)
		tr.span(f, name, "client", "post", start, postEnd)
		tr.span(f, name, "client", "wait", postEnd, waitEnd)
		tr.span(f, name, "client", "cells_get", waitEnd, end)
	}
	return sample{class: "sweep", dur: end.Sub(start), err: err}
}

func (s *svcInstance) checkSweep(ctx context.Context, cl *client.Client, id string, op sweepOp) error {
	v, err := cl.SweepStatus(ctx, id)
	if err != nil {
		return err
	}
	if v.State != "done" || len(v.CellTable) != len(op.cells()) {
		return fmt.Errorf("sweep ended %s with %d of %d cells: %s", v.State, len(v.CellTable), len(op.cells()), v.Error)
	}
	for _, c := range v.CellTable {
		if len(c.Values) != 2 {
			return fmt.Errorf("cell %d has values %v", c.Index, c.Values)
		}
		key := cell{spec.DefaultModel, c.Values[0], c.Values[1]}.key()
		raw, err := cl.Artifact(ctx, c.RunID, serve.ResultArtifact)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		res, err := decodeResult(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if err := check(s.ref, key, resultDigest(res)); err != nil {
			return err
		}
	}
	return nil
}

// mergeServerFlight copies the job's server-side flight, read from GET
// /v1/runs/{id}/trace, into the trace. The endpoint gives offsets from the
// job's submission, which the server takes a few microseconds into the
// POST, so the spans are placed relative to the POST's start. They get a
// flight of their own: the job's queue and run overlap the client's post
// and wait rather than nest in them. Server tracks map onto layers: the
// engine's build is spec.BuildWith, its gpu.* spans are the gpu layer, and
// the rest is serve. The op's time outside the job's run span is recorded
// as serve/outside_run.
func (s *svcInstance) mergeServerFlight(ctx context.Context, who int, id, key string, posted, end time.Time, tr *tracer) error {
	body, err := s.get(ctx, who, "/v1/runs/"+id+"/trace")
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("decode trace of %s: %w", id, err)
	}
	f := tr.flight(clientNames[who] + " server " + key)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		layer, name := "serve", ev.Name
		switch {
		case name == "build":
			layer = "spec"
		case strings.HasPrefix(name, "gpu."):
			layer = "gpu"
		case strings.HasPrefix(name, "attempt"):
			name = "attempt"
		}
		start := posted.Add(time.Duration(ev.Ts) * time.Microsecond)
		dur := time.Duration(ev.Dur) * time.Microsecond
		tr.span(f, clientNames[who], layer, name, start, start.Add(dur))
		if name == "run" {
			tr.record("serve", "outside_run", end.Sub(posted)-dur)
		}
	}
	return nil
}

// get fetches one service endpoint outside any op, on client who's
// connection.
func (s *svcInstance) get(ctx context.Context, who int, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc[who].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// finishTrace reads the server's Prometheus counters into the tracer.
func (s *svcInstance) finishTrace(ctx context.Context, tr *tracer) error {
	body, err := s.get(ctx, 0, "/metrics")
	if err != nil {
		return err
	}
	counters := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			counters[name] = v
		}
	}
	tr.serve = counters
	return sc.Err()
}
