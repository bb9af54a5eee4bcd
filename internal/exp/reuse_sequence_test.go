package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/spec"
)

// resultDigest is the SHA-256 of a Result's JSON, host timing zeroed.
func resultDigest(t *testing.T, res *gpu.Result) string {
	t.Helper()
	r := *res
	r.WallTime, r.SimCyclesPerSec = 0, 0
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunSequenceMatchesFresh is the run-sequence oracle for the recycled
// memory hierarchy: cells run back to back in one process, each drawing the
// System the previous cell released wherever the geometry allows, must give
// the Results the same cells give on a newly allocated System. The sequence
// crosses geometries (Table I's 13 private L1s, then 12 SMXs sharing L1s in
// pairs, then Table I again) and follows an attribution-on reuse cell with
// an attribution-off one. The pool may drop a released System at any time
// (under -race it does so at random), so the test asserts equality only,
// never that a System was reused.
func TestRunSequenceMatchesFresh(t *testing.T) {
	tiny := kernels.ScaleTiny.String()
	first := spec.RunSpec{Workload: "bfs-citation", Scale: tiny, Model: "dtbl", Scheduler: "adaptive-bind"}
	pair := spec.RunSpec{Workload: "bfs-citation", Scale: tiny, Model: "dtbl", Scheduler: "adaptive-bind",
		NumSMX: 12, SchedulerParams: &spec.SchedulerParams{ClusterSize: 2}}
	pairRR := pair
	pairRR.Scheduler = "rr"
	reuse := spec.RunSpec{Workload: "amr", Scale: tiny, Model: "cdp", Scheduler: "smx-bind", Attribution: true}
	sequence := []spec.RunSpec{first, pair, pairRR, reuse, first}

	o := Options{Scale: kernels.ScaleTiny}
	run := func(s spec.RunSpec) *gpu.Result {
		t.Helper()
		out, err := o.run(s)
		if err != nil {
			t.Fatal(err)
		}
		res := out.res
		if res.DRAMTransactions != res.L2.Accesses-res.L2.Hits {
			t.Errorf("%s/%s/%s: %d DRAM transactions, want L2 misses %d",
				s.Workload, s.Model, s.Scheduler, res.DRAMTransactions, res.L2.Misses())
		}
		return res
	}
	fresh := make([]string, len(sequence))
	for i, s := range sequence {
		// Two collections empty every sync.Pool, so the cell runs on a
		// System of its own.
		runtime.GC()
		runtime.GC()
		fresh[i] = resultDigest(t, run(s))
	}
	for i, s := range sequence {
		if got := resultDigest(t, run(s)); got != fresh[i] {
			t.Errorf("cell %d (%s/%s/%s, %d SMXs): digest %s in sequence, %s fresh",
				i, s.Workload, s.Model, s.Scheduler, s.NumSMX, got, fresh[i])
		}
	}
}
