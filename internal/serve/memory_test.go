package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"laperm/internal/spec"
)

// TestLiveHeapFlatInOpsServed: the server's memory does not grow with the
// number of ops it has served, because a done run or sweep keeps no record
// beside its cache entry and failed records sit in a ring of constant cap.
// The cache is seeded with 5000 run entries first, so its index is the same
// size at both measurements. Then 5000 ops go through the handler: cached
// submissions, executed tiny runs, one sweep, and failed runs — enough of
// them up front to fill the failed-record and flight rings before the first
// measurement, and more after. The live heap after 5000 ops must be within
// 10% of the live heap after 500.
func TestLiveHeapFlatInOpsServed(t *testing.T) {
	s, err := New(Config{CacheDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	h := s.Handler()

	const seeded = 5000
	cachedSpec := func(k int) string {
		return fmt.Sprintf(`{"workload":"amr","scale":"tiny","max_cycles":%d}`, 1_000_000+k)
	}
	for k := range seeded {
		sp, err := spec.Parse([]byte(cachedSpec(k)))
		if err != nil {
			t.Fatal(err)
		}
		sp = sp.Normalized()
		id, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.cache.Put(id, []Artifact{
			{Name: SpecArtifact, Write: func(w io.Writer) error { _, err := w.Write(canon); return err }},
			{Name: ResultArtifact, Write: func(w io.Writer) error { _, err := io.WriteString(w, `{"Cycles":1000}`); return err }},
		}); err != nil {
			t.Fatal(err)
		}
	}

	call := func(method, path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	// await polls path until its view reads want.
	await := func(path string, want State) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			_, body := call("GET", path, "")
			var v struct{ State State }
			if json.Unmarshal(body, &v) == nil && v.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %s: %s", path, want, body)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	run := func(body string, want State) {
		code, resp := call("POST", "/v1/runs", body)
		var v jobView
		if err := json.Unmarshal(resp, &v); err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
			t.Fatalf("submit %s: status %d, %s", body, code, resp)
		}
		if v.State != want {
			await("/v1/runs/"+v.ID, want)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var at500 uint64
	for i := range 5000 {
		switch {
		case i < 300 || i%10 == 0:
			// A cycle limit far below the run's ~1000 cycles: never cached.
			run(fmt.Sprintf(`{"workload":"amr","scale":"tiny","max_cycles":10,"sample_every":%d}`, 100_000+i), StateFailed)
		case i%50 == 25:
			run(fmt.Sprintf(`{"workload":"amr","scale":"tiny","max_cycles":%d}`, 3_000_000+i), StateDone)
		case i == 2500:
			code, resp := call("POST", "/v1/sweeps", `{"base": {"scale": "tiny"},
				"axes": [{"field": "workload", "values": ["amr", "bht"]}]}`)
			var v sweepView
			if err := json.Unmarshal(resp, &v); err != nil || code != http.StatusAccepted {
				t.Fatalf("sweep submit: status %d, %s", code, resp)
			}
			await("/v1/sweeps/"+v.ID, StateDone)
		default:
			run(cachedSpec(i%seeded), StateDone)
		}
		if i+1 == 500 {
			at500 = liveHeap()
		}
	}
	at5000 := liveHeap()
	t.Logf("live heap: %.2f MB after 500 ops, %.2f MB after 5000", float64(at500)/1e6, float64(at5000)/1e6)
	if float64(at5000) > 1.1*float64(at500) {
		t.Fatalf("live heap grew from %d bytes after 500 ops to %d after 5000 (> 10%%)", at500, at5000)
	}
	s.mu.Lock()
	jobs, sweeps := len(s.jobs.m), len(s.sweeps.m)
	s.mu.Unlock()
	if jobs > failedRecordCap || sweeps != 0 {
		t.Fatalf("server holds %d job and %d sweep records, want at most %d failed jobs and no sweep",
			jobs, sweeps, failedRecordCap)
	}
}
