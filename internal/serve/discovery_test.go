package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"testing"

	"laperm/internal/spec"
)

func getDiscovery[T any](t *testing.T, ts *httptest.Server, path string) discoveryView[T] {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s returned %d", path, resp.StatusCode)
	}
	var view discoveryView[T]
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// TestDiscoveryEndpoints: the registries come back non-empty, every listed
// name round-trips through a valid RunSpec, and /v1/workloads carries the
// sweepable axis vocabulary.
func TestDiscoveryEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Start()

	ws := getDiscovery[workloadView](t, ts, "/v1/workloads")
	if len(ws.Items) == 0 {
		t.Fatal("no workloads listed")
	}
	if !reflect.DeepEqual(ws.AxisFields, spec.AxisFields()) {
		t.Fatalf("axis_fields = %v, want %v", ws.AxisFields, spec.AxisFields())
	}
	if len(ws.Scales) == 0 || len(ws.WarpPolicy) == 0 {
		t.Fatalf("workload discovery missing spec vocabulary: %+v", ws)
	}

	scheds := getDiscovery[schedulerView](t, ts, "/v1/schedulers")
	if len(scheds.Items) == 0 {
		t.Fatal("no schedulers listed")
	}
	models := getDiscovery[modelView](t, ts, "/v1/models")
	if len(models.Items) == 0 {
		t.Fatal("no models listed")
	}

	// Every advertised (workload, scheduler, model) combination validates.
	sp := spec.RunSpec{
		Workload:  ws.Items[0].Name,
		Scheduler: scheds.Items[len(scheds.Items)-1].Name,
		Model:     models.Items[len(models.Items)-1].Name,
	}
	if err := sp.Normalized().Validate(); err != nil {
		t.Fatalf("spec built from discovery listings does not validate: %v", err)
	}
}

// TestRunsList: GET /v1/runs pages through the runs — done ones from the
// cache — in id order with state filtering and cursor pagination, and
// lists no sweep.
func TestRunsList(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.Start()

	specs := []string{
		`{"workload":"amr","scale":"tiny","sample_every":256}`,
		`{"workload":"bht","scale":"tiny","sample_every":256}`,
		`{"workload":"amr","scale":"tiny","sample_every":128}`,
	}
	var ids []string
	for _, sp := range specs {
		_, view := submit(t, ts, sp)
		ids = append(ids, view.ID)
		waitTerminal(t, ts, view.ID)
	}
	slices.Sort(ids)
	// A one-cell sweep over the first run: its entry sits in the cache
	// beside the runs' entries.
	_, sw := submitSweep(t, ts, `{"base": {"scale": "tiny", "sample_every": 256},
		"axes": [{"field": "workload", "values": ["amr"]}]}`)
	if v := waitSweepTerminal(t, ts, sw.ID); v.State != StateDone {
		t.Fatalf("sweep = %s, want done", v.State)
	}

	list := func(query string) runsListView {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/runs?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q returned %d", query, resp.StatusCode)
		}
		var view runsListView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		return view
	}

	all := list("")
	if len(all.Runs) != 3 || all.NextCursor != "" {
		t.Fatalf("list = %d runs, next cursor %q; want 3 on one page", len(all.Runs), all.NextCursor)
	}
	for i, id := range ids {
		if all.Runs[i].ID != id {
			t.Fatalf("listing out of id order: got %s at %d, want %s", all.Runs[i].ID, i, id)
		}
	}

	done := list("state=" + url.QueryEscape(string(StateDone)))
	if len(done.Runs) != 3 {
		t.Fatalf("done filter listed %d runs, want 3", len(done.Runs))
	}
	if failed := list("state=failed"); len(failed.Runs) != 0 {
		t.Fatalf("failed filter = %+v, want empty", failed)
	}

	// Page through one run at a time.
	var paged []string
	cursor := ""
	for range 4 {
		page := list("limit=1&cursor=" + cursor)
		if len(page.Runs) != 1 {
			t.Fatalf("page after %q has %d runs, want 1", cursor, len(page.Runs))
		}
		paged = append(paged, page.Runs[0].ID)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if !reflect.DeepEqual(paged, ids) {
		t.Fatalf("paged ids = %v, want %v", paged, ids)
	}

	for _, query := range []string{"state=bogus", "cursor=../x"} {
		resp, err := http.Get(ts.URL + "/v1/runs?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/runs?%s returned %d, want 400", query, resp.StatusCode)
		}
	}
}
