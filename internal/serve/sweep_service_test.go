package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"laperm/internal/exp"
	"laperm/internal/spec"
)

// tinySweep expands to 4 cells over (workload × scheduler), every cell a
// sub-second tiny run.
const tinySweep = `{
	"base": {"scale": "tiny", "sample_every": 256},
	"axes": [
		{"field": "workload", "values": ["amr", "bht"]},
		{"field": "scheduler", "values": ["rr", "adaptive-bind"]}
	]
}`

func submitSweep(t *testing.T, ts *httptest.Server, body string) (int, sweepView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view sweepView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode sweep response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, view
}

func getSweep(t *testing.T, ts *httptest.Server, id string) sweepView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status endpoint returned %d", resp.StatusCode)
	}
	var view sweepView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func waitSweepTerminal(t *testing.T, ts *httptest.Server, id string) sweepView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		view := getSweep(t, ts, id)
		if view.State == StateDone || view.State == StateFailed {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not reach a terminal state", id)
	return sweepView{}
}

func getSweepArtifact(t *testing.T, ts *httptest.Server, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep artifact %s returned %d", name, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitSweepDropped waits for a done sweep's record to be retired, after
// which only its cache entry answers for it.
func waitSweepDropped(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		sw := s.sweeps.m[id]
		s.mu.Unlock()
		if sw == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still has a record (state %s)", id, sw.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// checkDoneSweepServed asserts that a done sweep with no record answers
// from its cache entry: status (cached, with its cells), a fresh and a
// resumed event stream (the terminal snapshot alone), cancel (a no-op
// answering the done view), and every artifact.
func checkDoneSweepServed(t *testing.T, ts *httptest.Server, id string, cells int) {
	t.Helper()
	if v := getSweep(t, ts, id); v.State != StateDone || !v.Cached || len(v.CellTable) != cells || v.Done != cells {
		t.Fatalf("status of a done sweep = %+v, want done, cached, %d cells", v, cells)
	}
	for _, after := range []uint64{0, 3} {
		evs := readSSE(t, openEvents(t, ts.URL+"/v1/sweeps/"+id+"/events", after).Body)
		if len(evs) != 1 || evs[0].event != "state" || evs[0].id != after ||
			!strings.Contains(evs[0].data, `"state":"done"`) {
			t.Fatalf("sweep events after id %d = %+v, want the done snapshot alone, at id %d", after, evs, after)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cv sweepView
	err = json.NewDecoder(resp.Body).Decode(&cv)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || cv.State != StateDone || cv.Canceled {
		t.Fatalf("cancel of a done sweep: status %d, view %+v (%v); want 200 and the done view", resp.StatusCode, cv, err)
	}
	for _, name := range SweepArtifactNames {
		getSweepArtifact(t, ts, id, name)
	}
}

// TestSweepEndToEnd: submit, expand, execute, aggregate. The sweep's
// cells.csv must be byte-identical to running the same expansion serially
// in-process — the acceptance check that server-side scheduling (any
// interleaving, any dedupe path) cannot change results.
func TestSweepEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.Start()

	code, view := submitSweep(t, ts, tinySweep)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d, want 202", code)
	}
	if len(view.ID) != 64 {
		t.Fatalf("sweep id %q is not a sha256 hex digest", view.ID)
	}
	if view.Cells != 4 || view.Scheduled != 4 {
		t.Fatalf("sweep view = %+v, want 4 cells all scheduled", view)
	}

	final := waitSweepTerminal(t, ts, view.ID)
	if final.State != StateDone {
		t.Fatalf("sweep failed: %s (%s)", final.Error, final.ErrorKind)
	}
	if final.Done != 4 {
		t.Fatalf("done = %d, want 4", final.Done)
	}
	if len(final.CellTable) != 4 {
		t.Fatalf("cell table has %d rows, want 4", len(final.CellTable))
	}
	for _, c := range final.CellTable {
		if c.State != StateDone || c.Source != CellSourceRun {
			t.Fatalf("cell %d = %+v, want done/run", c.Index, c)
		}
		if len(c.RunID) != 64 {
			t.Fatalf("cell %d run id %q is not a content hash", c.Index, c.RunID)
		}
		// Every cell is addressable as an ordinary run.
		if rv := getStatus(t, ts, c.RunID); rv.State != StateDone {
			t.Fatalf("cell %d job state = %s, want done", c.Index, rv.State)
		}
	}

	got := getSweepArtifact(t, ts, view.ID, SweepCellsArtifact)

	// Serial in-process reference: expand the same spec, run every cell on
	// a fresh simulator, and emit the same writer.
	sp, err := spec.ParseSweep([]byte(tinySweep))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sp.Normalized().Expand()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]exp.CellRow, len(cells))
	for i, c := range cells {
		sim, _, err := c.Spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = exp.CellRow{ID: c.Hash, Values: c.Values, Result: res}
	}
	var want bytes.Buffer
	if err := exp.WriteCellsCSV([]string{"workload", "scheduler"}, rows, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("sweep cells.csv differs from serial in-process execution:\nserver:\n%s\nserial:\n%s",
			got, want.Bytes())
	}
}

// TestConcurrentSweepsDedupeSharedCells: two overlapping sweeps submitted
// concurrently must simulate each unique cell exactly once — proven by the
// scheduled-cells metric — and still each produce a complete, correct
// aggregate. The server starts only after both submissions so the overlap
// is guaranteed to be resolved against in-flight (not completed) work.
func TestConcurrentSweepsDedupeSharedCells(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	// 4 cells each, sharing the 2 (bht × {rr, adaptive-bind}) cells.
	sweepA := `{
		"base": {"scale": "tiny", "sample_every": 256},
		"axes": [
			{"field": "workload", "values": ["amr", "bht"]},
			{"field": "scheduler", "values": ["rr", "adaptive-bind"]}
		]
	}`
	sweepB := `{
		"base": {"scale": "tiny", "sample_every": 256},
		"axes": [
			{"field": "workload", "values": ["bht", "bfs-citation"]},
			{"field": "scheduler", "values": ["rr", "adaptive-bind"]}
		]
	}`

	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i, body := range []string{sweepA, sweepB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var view sweepView
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Error(err)
				return
			}
			ids[i] = view.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	s.Start()

	finalA := waitSweepTerminal(t, ts, ids[0])
	finalB := waitSweepTerminal(t, ts, ids[1])
	if finalA.State != StateDone || finalB.State != StateDone {
		t.Fatalf("sweeps: %s / %s, want done/done", finalA.State, finalB.State)
	}

	m := getMetrics(t, ts)
	if m.Sweeps.CellsExpanded != 8 {
		t.Fatalf("cells expanded = %d, want 8", m.Sweeps.CellsExpanded)
	}
	// 6 unique cells across the two sweeps: exactly 6 scheduled, 2 deduped.
	if m.Sweeps.CellsScheduled != 6 {
		t.Fatalf("cells scheduled = %d, want 6 (each unique cell simulated once)", m.Sweeps.CellsScheduled)
	}
	if m.Sweeps.CellsDeduped != 2 {
		t.Fatalf("cells deduped = %d, want 2", m.Sweeps.CellsDeduped)
	}
	if m.JobsDone != 6 {
		t.Fatalf("jobs done = %d, want 6", m.JobsDone)
	}

	// The deduped sweep's aggregate must be byte-identical to what a
	// private, serial execution of its axes produces.
	dedupedID := ids[0]
	if finalB.Deduped > 0 {
		dedupedID = ids[1]
	}
	var dedupedBody string
	if dedupedID == ids[0] {
		dedupedBody = sweepA
	} else {
		dedupedBody = sweepB
	}
	got := getSweepArtifact(t, ts, dedupedID, SweepCellsArtifact)

	s2, ts2 := newTestServer(t, Config{Workers: 1})
	s2.Start()
	_, v2 := submitSweep(t, ts2, dedupedBody)
	if f := waitSweepTerminal(t, ts2, v2.ID); f.State != StateDone {
		t.Fatalf("reference sweep failed: %s", f.Error)
	}
	want := getSweepArtifact(t, ts2, v2.ID, SweepCellsArtifact)
	if !bytes.Equal(got, want) {
		t.Fatalf("deduped sweep cells.csv differs from isolated execution:\nshared:\n%s\nisolated:\n%s", got, want)
	}
}

// TestSweepDedupesInFlightSingleton: a sweep whose cell matches an
// in-flight /v1/runs submission attaches to it instead of scheduling a
// duplicate.
func TestSweepDedupesInFlightSingleton(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// Not started: the singleton stays queued while the sweep resolves.

	code, rv := submit(t, ts, `{"workload":"amr","scale":"tiny","sample_every":256}`)
	if code != http.StatusAccepted {
		t.Fatalf("singleton submit: status %d, want 202", code)
	}
	_, sv := submitSweep(t, ts, `{
		"base": {"scale": "tiny", "sample_every": 256},
		"axes": [{"field": "workload", "values": ["amr", "bht"]}]
	}`)
	if sv.Deduped != 1 || sv.Scheduled != 1 {
		t.Fatalf("sweep view = %+v, want 1 deduped (the in-flight amr run) + 1 scheduled", sv)
	}

	s.Start()
	final := waitSweepTerminal(t, ts, sv.ID)
	if final.State != StateDone {
		t.Fatalf("sweep failed: %s", final.Error)
	}
	if jv := waitTerminal(t, ts, rv.ID); jv.State != StateDone {
		t.Fatalf("singleton failed: %s", jv.Error)
	}
	m := getMetrics(t, ts)
	if m.Sweeps.CellsDeduped != 1 {
		t.Fatalf("cells deduped = %d, want 1", m.Sweeps.CellsDeduped)
	}
}

// TestSweepCoalesceAndCache: resubmitting an identical sweep coalesces
// while it runs and, once it is done, is answered from its cache entry —
// the done sweep's only record — in the same process and after a restart
// on the same cache directory.
func TestSweepCoalesceAndCache(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	// Not started: the sweep runs until the workers start.
	_, v1 := submitSweep(t, ts, tinySweep)
	code, v2 := submitSweep(t, ts, tinySweep)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200", code)
	}
	if v2.ID != v1.ID {
		t.Fatalf("identical sweeps got different ids: %s vs %s", v1.ID, v2.ID)
	}
	if m := getMetrics(t, ts); m.Sweeps.Coalesced != 1 {
		t.Fatalf("sweeps coalesced = %d, want 1", m.Sweeps.Coalesced)
	}
	s.Start()
	final := waitSweepTerminal(t, ts, v1.ID)
	if final.State != StateDone {
		t.Fatalf("sweep failed: %s", final.Error)
	}
	waitSweepDropped(t, s, v1.ID)
	code, v2 = submitSweep(t, ts, tinySweep)
	if code != http.StatusOK || v2.State != StateDone || !v2.Cached {
		t.Fatalf("resubmit of a done sweep: status %d, view %+v; want 200 cached done", code, v2)
	}
	if m := getMetrics(t, ts); m.Sweeps.Coalesced != 1 || m.Sweeps.CellsScheduled != 4 {
		t.Fatalf("sweeps coalesced = %d, cells scheduled %d; want 1 and 4 (a cache answer schedules nothing)",
			m.Sweeps.Coalesced, m.Sweeps.CellsScheduled)
	}
	checkDoneSweepServed(t, ts, v1.ID, 4)
	csv1 := getSweepArtifact(t, ts, v1.ID, SweepCellsArtifact)

	// Restart on the same cache dir: the sweep answers from disk without
	// executing anything, artifacts intact.
	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s2.Start()
	checkDoneSweepServed(t, ts2, v1.ID, 4)
	code3, v3 := submitSweep(t, ts2, tinySweep)
	if code3 != http.StatusOK || !v3.Cached {
		t.Fatalf("restart resubmit: status %d cached %v, want 200 cached", code3, v3.Cached)
	}
	if m2 := getMetrics(t, ts2); m2.Sweeps.CellsScheduled != 0 {
		t.Fatalf("restart scheduled %d cells, want 0", m2.Sweeps.CellsScheduled)
	}
	csv2 := getSweepArtifact(t, ts2, v1.ID, SweepCellsArtifact)
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("cached cells.csv differs across restart")
	}
}

// TestSweepRecomputesEvictedCell: a sweep cell whose run finished in this
// process but whose cache entry was since evicted is not done — the sweep
// schedules it afresh (source "run") and still completes.
func TestSweepRecomputesEvictedCell(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheMaxBytes: 1})
	s.Start()

	_, a := submit(t, ts, `{"workload":"amr","scale":"tiny","sample_every":256}`)
	if v := waitTerminal(t, ts, a.ID); v.State != StateDone {
		t.Fatalf("run A failed: %s", v.Error)
	}
	_, b := submit(t, ts, `{"workload":"bht","scale":"tiny"}`)
	if v := waitTerminal(t, ts, b.ID); v.State != StateDone {
		t.Fatalf("run B failed: %s", v.Error)
	}

	// One cell, identical to run A, whose entry B's write evicted.
	_, sv := submitSweep(t, ts, `{
		"base": {"scale": "tiny", "sample_every": 256},
		"axes": [{"field": "workload", "values": ["amr"]}]
	}`)
	final := waitSweepTerminal(t, ts, sv.ID)
	if final.State != StateDone {
		t.Fatalf("sweep = %s (%s), want done", final.State, final.Error)
	}
	if len(final.CellTable) != 1 {
		t.Fatalf("cell table has %d rows, want 1", len(final.CellTable))
	}
	if c := final.CellTable[0]; c.RunID != a.ID || c.Source != CellSourceRun || c.State != StateDone {
		t.Fatalf("cell = %+v, want run A recomputed (source run, done)", c)
	}
}

// TestSweepFairShareNoStarvation: with one worker, a large sweep queued
// first must not starve a small sweep from another tenant — strict tenant
// round-robin interleaves them, so the small sweep finishes while the large
// one still has queued cells. Both sweeps are queued before the workers
// start, so the big sweep's entire backlog sits ahead of the small one.
func TestSweepFairShareNoStarvation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// 40 distinct cells: sample_every values on one tiny workload.
	values := make([]string, 40)
	for i := range values {
		values[i] = strconv.Itoa(64 + i)
	}
	big := `{
		"tenant": "bulk",
		"base": {"workload": "amr", "scale": "tiny"},
		"axes": [{"field": "sample_every", "values": [` + strings.Join(values, ",") + `]}]
	}`
	small := `{
		"tenant": "interactive",
		"base": {"scale": "tiny", "sample_every": 256},
		"axes": [{"field": "workload", "values": ["amr", "bht"]}]
	}`

	_, bigView := submitSweep(t, ts, big)
	if bigView.Cells != 40 {
		t.Fatalf("big sweep cells = %d, want 40", bigView.Cells)
	}
	_, smallView := submitSweep(t, ts, small)
	s.Start()

	finalSmall := waitSweepTerminal(t, ts, smallView.ID)
	if finalSmall.State != StateDone {
		t.Fatalf("small sweep failed: %s", finalSmall.Error)
	}
	// The moment the small sweep completed, fair share guarantees the big
	// sweep had not monopolized the worker: it must still have cells left.
	bigNow := getSweep(t, ts, bigView.ID)
	if bigNow.Done >= bigNow.Cells {
		t.Fatal("big sweep finished before the small sweep: fair share failed to interleave tenants")
	}
	if finalBig := waitSweepTerminal(t, ts, bigView.ID); finalBig.State != StateDone {
		t.Fatalf("big sweep failed: %s", finalBig.Error)
	}
}

// TestSweepCancel: cancellation releases exclusively-owned queued cells but
// leaves shared cells to finish for their other owners.
func TestSweepCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// Not started: everything stays queued while we set up ownership.

	_, a := submitSweep(t, ts, `{
		"base": {"scale": "tiny", "sample_every": 256},
		"axes": [{"field": "workload", "values": ["amr", "bht", "bfs-citation"]}]
	}`)
	_, b := submitSweep(t, ts, `{
		"base": {"scale": "tiny", "sample_every": 256},
		"axes": [{"field": "workload", "values": ["amr", "bht"]}]
	}`)
	if b.Deduped != 2 {
		t.Fatalf("sweep B deduped = %d, want 2", b.Deduped)
	}

	resp, err := http.Post(ts.URL+"/v1/sweeps/"+a.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var av sweepView
	if err := json.NewDecoder(resp.Body).Decode(&av); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if av.State != StateFailed || av.ErrorKind != KindCanceled {
		t.Fatalf("canceled sweep = %s/%s, want failed/canceled", av.State, av.ErrorKind)
	}

	s.Start()
	// B still completes: its two cells were shared, so cancel left them.
	finalB := waitSweepTerminal(t, ts, b.ID)
	if finalB.State != StateDone {
		t.Fatalf("sweep B failed after A's cancel: %s", finalB.Error)
	}
	// A's exclusive bfs-citation cell was released without executing.
	m := getMetrics(t, ts)
	if m.Sweeps.Canceled != 1 {
		t.Fatalf("sweeps canceled = %d, want 1", m.Sweeps.Canceled)
	}
	if m.JobsDone != 2 {
		t.Fatalf("jobs done = %d, want 2 (released cell must not execute)", m.JobsDone)
	}

	// A cell resolved but not settled yet (a cached cell, settled once the
	// submission releases the server lock) has no job: cancel leaves it.
	pending := newSweep(strings.Repeat("0", 64), spec.SweepSpec{})
	pending.cells, pending.remaining = []*sweepCell{{state: StateQueued}}, 1
	var release []*Job
	if !pending.cancel(newFairQueue(1), &release) || len(release) != 0 || pending.cells[0].state != StateFailed {
		t.Fatalf("cancel with a jobless open cell: released %d, cell %s", len(release), pending.cells[0].state)
	}
}

// TestSweepRateLimit: per-tenant sweep token bucket answers 429 with
// Retry-After once the burst is spent — but idempotent resubmissions of an
// accepted sweep coalesce without being throttled.
func TestSweepRateLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SweepRPS: 0.001, SweepBurst: 1})
	s.Start()

	code, v1 := submitSweep(t, ts, tinySweep)
	if code != http.StatusAccepted {
		t.Fatalf("first sweep: status %d, want 202", code)
	}

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(`{
		"base": {"scale": "tiny", "sample_every": 128},
		"axes": [{"field": "workload", "values": ["amr"]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second sweep: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	var envelope apiError
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Kind != ErrKindRateLimited || !envelope.Retryable {
		t.Fatalf("throttle envelope = %+v, want retryable rate-limited", envelope)
	}

	// Retrying the accepted sweep is free: it coalesces before the limiter.
	code3, v3 := submitSweep(t, ts, tinySweep)
	if code3 != http.StatusOK || v3.ID != v1.ID {
		t.Fatalf("coalescing resubmit throttled: status %d id %s", code3, v3.ID)
	}

	// A different tenant has its own bucket.
	code4, _ := submitSweep(t, ts, `{
		"tenant": "other",
		"base": {"scale": "tiny", "sample_every": 128},
		"axes": [{"field": "workload", "values": ["amr"]}]
	}`)
	if code4 != http.StatusAccepted {
		t.Fatalf("other tenant's sweep: status %d, want 202", code4)
	}
}

// TestSweepValidationErrors: malformed sweeps answer 400 with the unified
// error envelope.
func TestSweepValidationErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxSweepCells: 8})
	s.Start()
	for _, body := range []string{
		`{not json`,
		`{"base": {"scale":"tiny"}, "axes": []}`, // no axes
		`{"base": {"scale":"tiny"}, "axes": [{"field":"nope","values":[1]}]}`,                       // unknown field
		`{"base": {"scale":"tiny"}, "axes": [{"field":"workload","values":["amr","amr"]}]}`,         // dup value
		`{"base": {"scale":"tiny"}, "axes": [{"field":"max_cycles","values":[1,2,3,4,5,6,7,8,9]}]}`, // > MaxSweepCells
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope apiError
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("sweep(%q): envelope decode: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || envelope.Kind != ErrKindBadRequest {
			t.Errorf("sweep(%q): status %d kind %q, want 400 bad-request", body, resp.StatusCode, envelope.Kind)
		}
	}
}

// TestSweepServerCellBoundFirst: the server's cell bound is checked before
// the sweep is expanded, so an oversized sweep is rejected with the
// server-bound message even when one of its cells is invalid.
func TestSweepServerCellBoundFirst(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxSweepCells: 2})
	s.Start()
	body := `{"base": {"scale":"tiny"}, "axes": [{"field":"workload","values":["amr","bht","nope"]}]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope apiError
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(envelope.Message, "this server accepts") {
		t.Errorf("status %d, message %q; want 400 with the server cell bound", resp.StatusCode, envelope.Message)
	}
}

// TestSweepEvents: a live SSE subscriber sees every per-cell completion and
// the terminal state with monotonic ids, a reconnect with Last-Event-ID
// while the sweep runs replays exactly the missed suffix, and once the
// sweep is done any subscriber gets its terminal snapshot.
func TestSweepEvents(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// Hold the last of the four cells to start, so the sweep is still
	// running when the stream resumes below.
	release := make(chan struct{})
	var started atomic.Int32
	s.testBeforeRun = func(*Job) {
		if started.Add(1) == 4 {
			<-release
		}
	}

	// Submit while the workers are stopped, attach the stream, then
	// start: every cell event is delivered live.
	_, view := submitSweep(t, ts, tinySweep)
	url := ts.URL + "/v1/sweeps/" + view.ID + "/events"
	live := bufio.NewReader(openEvents(t, url, 0).Body)
	s.Start()
	var stream strings.Builder
	for cells := 0; cells < 3; {
		line, err := live.ReadString('\n')
		if err != nil {
			t.Fatalf("live stream ended after:\n%s", stream.String())
		}
		stream.WriteString(line)
		if line == "event: cell\n" {
			cells++
		}
	}

	// Resume after the first event: the replay must hold the remaining
	// cell events and the terminal state, nothing before the cursor.
	resumedResp := openEvents(t, url, 1)
	close(release)
	rest, err := io.ReadAll(live)
	if err != nil {
		t.Fatal(err)
	}
	stream.Write(rest)
	if n := strings.Count(stream.String(), "event: cell"); n != 4 {
		t.Fatalf("stream has %d cell events, want 4:\n%s", n, stream.String())
	}
	if !strings.Contains(stream.String(), `"state":"done"`) {
		t.Fatalf("stream missing terminal done state:\n%s", stream.String())
	}
	var buf2 bytes.Buffer
	if _, err := buf2.ReadFrom(resumedResp.Body); err != nil {
		t.Fatal(err)
	}
	resumed := buf2.String()
	if strings.Contains(resumed, "id: 1\n") {
		t.Fatalf("resume replayed the acknowledged event:\n%s", resumed)
	}
	if n := strings.Count(resumed, "event: cell"); n != 3 {
		t.Fatalf("resume replayed %d cell events, want 3:\n%s", n, resumed)
	}
	if !strings.Contains(resumed, `"state":"done"`) {
		t.Fatalf("resume missing terminal state:\n%s", resumed)
	}

	waitSweepDropped(t, s, view.ID)
	checkDoneSweepServed(t, ts, view.ID, 4)
}
