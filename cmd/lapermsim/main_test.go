package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"laperm/internal/serve"
)

// runCLI runs the command in-process and returns its exit status and output.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestFlagSet pins the command's whole flag surface.
func TestFlagSet(t *testing.T) {
	code, _, usage := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		got = append(got, m[1])
	}
	want := []string{"compare", "dense", "model", "out", "pprof-cpu", "pprof-heap", "print-spec",
		"reuse-csv", "scale", "sched", "timeline", "v", "workers", "workload"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// TestUsageErrors: flag combinations the command cannot honour exit 2
// before anything simulates.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-workload", "amr", "-out", dir, "-compare"},
		{"-workload", "amr,bht", "-out", dir},
		{"-workload", "all", "-timeline", "256"},
		{"-sched", "bogus"},
		{"-no-such-flag"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a usage error wrote %d files into -out", len(entries))
	}
}

// httpGet fetches url and fails the test on anything but 200.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// postAndWait submits body to an in-process lapermd endpoint and polls the
// returned resource until it is done, returning its final JSON view.
func postAndWait(t *testing.T, base, endpoint, body string, view any) {
	t.Helper()
	resp, err := http.Post(base+endpoint, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.ID == "" {
		t.Fatalf("POST %s: status %d, id %q, %v", endpoint, resp.StatusCode, sub.ID, err)
	}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		raw := httpGet(t, base+endpoint+"/"+sub.ID)
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done":
			if err := json.Unmarshal(raw, view); err != nil {
				t.Fatal(err)
			}
			return
		case "failed":
			t.Fatalf("%s %s failed: %s", endpoint, sub.ID, raw)
		}
	}
	t.Fatalf("%s %s did not finish", endpoint, sub.ID)
}

// newServer starts an in-process lapermd on a private cache.
func newServer(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{CacheDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// TestOutMatchesService is the in-process vs service oracle: one tiny cell
// written by `lapermsim -out` is byte-identical, artifact for artifact, to
// the /v1/runs cache entry of the same spec, and its result.json also
// equals the one a fresh server computes for that cell inside a /v1/sweeps
// request.
func TestOutMatchesService(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run")
	code, stdout, stderr := runCLI(t, "-workload", "amr", "-scale", "tiny", "-timeline", "256", "-out", out)
	if code != 0 {
		t.Fatalf("lapermsim -out exited %d: %s", code, stderr)
	}
	for _, line := range []string{"  L1 reuse: ", "  L2 reuse: ", " timeline samples -> " + out} {
		if !strings.Contains(stdout, line) {
			t.Errorf("stdout lacks %q:\n%s", line, stdout)
		}
	}

	base := newServer(t)
	var job struct {
		ID string `json:"id"`
	}
	postAndWait(t, base, "/v1/runs", `{"workload":"amr","scale":"tiny","sample_every":256,"attribution":true}`, &job)
	for _, name := range serve.ArtifactNames {
		file, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if served := httpGet(t, base+"/v1/artifacts/"+job.ID+"/"+name); !bytes.Equal(file, served) {
			t.Errorf("%s: -out file (%d bytes) differs from the /v1/runs artifact (%d bytes)", name, len(file), len(served))
		}
	}

	sweepBase := newServer(t)
	var sweep struct {
		Cells []struct {
			RunID string `json:"run_id"`
		} `json:"cell_table"`
	}
	postAndWait(t, sweepBase, "/v1/sweeps", `{
		"base": {"scale": "tiny", "sample_every": 256, "attribution": true},
		"axes": [{"field": "workload", "values": ["amr"]}]
	}`, &sweep)
	if len(sweep.Cells) != 1 || sweep.Cells[0].RunID != job.ID {
		t.Fatalf("sweep cells = %+v, want the one run %s", sweep.Cells, job.ID)
	}
	file, err := os.ReadFile(filepath.Join(out, serve.ResultArtifact))
	if err != nil {
		t.Fatal(err)
	}
	if cell := httpGet(t, sweepBase+"/v1/artifacts/"+job.ID+"/"+serve.ResultArtifact); !bytes.Equal(file, cell) {
		t.Errorf("sweep cell result.json differs from the -out file:\n%s\nvs\n%s", cell, file)
	}
}

// TestCompareReuseCSV: -compare tabulates the reuse breakdown and
// -reuse-csv writes it, one row pair per scheduler.
func TestCompareReuseCSV(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "reuse.csv")
	code, stdout, stderr := runCLI(t, "-workload", "amr", "-scale", "tiny", "-compare", "-reuse-csv", csvPath)
	if code != 0 {
		t.Fatalf("-compare exited %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "Parent-child share of classified L1 hits (dtbl, 1 workloads)") {
		t.Errorf("unexpected report:\n%s", stdout)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(csv), "\n"); rows < 3 {
		t.Errorf("reuse CSV has %d lines:\n%s", rows, csv)
	}
}
