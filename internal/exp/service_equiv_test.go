package exp_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/serve"
	"laperm/internal/spec"
)

// TestStudyCellsThroughService: for each study that varies a field only
// RunSpec's later additions can say, one of its points submitted to an
// in-process lapermd returns the Result exp's executor computed for it.
func TestStudyCellsThroughService(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six studies and a service")
	}
	params := func(s spec.RunSpec) spec.SchedulerParams {
		if s.SchedulerParams == nil {
			return spec.SchedulerParams{}
		}
		return *s.SchedulerParams
	}
	picks := map[string]func(spec.RunSpec) bool{
		"latency": func(s spec.RunSpec) bool { return s.DTBLLaunchLatency == 5000 && s.Scheduler == "adaptive-bind" },
		"clusters": func(s spec.RunSpec) bool {
			return s.NumSMX == 12 && params(s).ClusterSize == 4 && s.Scheduler == "adaptive-bind"
		},
		"levels": func(s spec.RunSpec) bool {
			return s.Workload == "nested-4" && params(s).MaxLevels == 8 && s.Scheduler == "tb-pri"
		},
		"warp":     func(s spec.RunSpec) bool { return s.WarpPolicy == "two-level" && s.Scheduler == "adaptive-bind" },
		"throttle": func(s spec.RunSpec) bool { return params(s).TBCap == 8 },
		"backup":   func(s spec.RunSpec) bool { return params(s).Backup == spec.BackupFree },
	}

	srv, err := serve.New(serve.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	o := exp.Options{Scale: kernels.ScaleTiny, Workloads: []string{"bfs-citation"}}
	for id, pick := range picks {
		pts, err := exp.StudyPoints(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var pt *exp.Point
		for i := range pts {
			if pick(pts[i].Spec) {
				pt = &pts[i]
				break
			}
		}
		if pt == nil {
			t.Fatalf("%s: no point matches", id)
		}
		body, err := pt.Spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		served := serviceResult(t, ts.URL, body)
		want, err := json.Marshal(pt.Res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, want) {
			t.Errorf("%s: %s: lapermd's Result differs from the executor's:\nserved: %s\nexec:   %s", id, body, served, want)
		}
	}
}

// serviceResult submits a RunSpec, waits for the run to finish, and returns
// its Result re-encoded the way json.Marshal encodes a *gpu.Result.
func serviceResult(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	var view struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Error  json.RawMessage `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	get := func(resp *http.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode (status %d): %v", resp.StatusCode, err)
		}
	}
	get(http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body)))
	for deadline := time.Now().Add(30 * time.Second); view.State != "done"; time.Sleep(5 * time.Millisecond) {
		if view.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("run %s: state %q, error %s", view.ID, view.State, view.Error)
		}
		get(http.Get(url + "/v1/runs/" + view.ID))
	}
	var res gpu.Result
	if err := json.Unmarshal(view.Result, &res); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
