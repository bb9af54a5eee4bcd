package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"laperm/internal/kernels"
)

// TestLRRFastForwardPinned pins the warp study's report under the default
// fast-forward clock on workloads whose MSHR-stalled warps are skipped by
// LRR's issue scan. LRR advances its cursor inside the scan, so a scan that
// issues fewer than IssueWidth warps can still pass over a stalled warp,
// leaving its last view of the MSHR table stale; the stall-wake horizon must
// then keep waking it on the cycle after each new MSHR add. Dropping that
// wake changes these rows, and no dense-vs-fast-forward oracle covers them
// (the study's LRR cells are not clock-exact; see TestMSHRStallStatsPinned).
//
//	go test ./internal/exp/ -run LRRFastForwardPinned -update
func TestLRRFastForwardPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the warp study on three tiny workloads")
	}
	ex, ok := ByID("warp")
	if !ok {
		t.Fatal("warp study not registered")
	}
	var got bytes.Buffer
	o := Options{Scale: kernels.ScaleTiny, Workloads: []string{"regx-darpa", "pre-movielens", "sssp-graph5"}}
	if err := ex.Run(o, &got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "warp_lrr_tiny.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("warp study report changed:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}
