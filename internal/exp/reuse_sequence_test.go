package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
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
// engine: cells run back to back in one process, each drawing the engine
// the previous cell released wherever the key allows, must end exactly as
// the same cells do on a newly built engine — the same Result digest, or
// the same error. The sequence crosses machine shapes (Table I's 13 private
// L1s, 12 SMXs sharing L1s in pairs, the small test machine), launch
// models, schedulers, all three warp policies, attribution, the dense clock
// and the auditor, and it follows runs that stop with work in flight — a
// watchdog deadlock and a mid-run cancellation — with runs that must not
// see their leftovers. The pool may drop a released engine at any time
// (under -race it does so at random), so the test asserts equality only,
// never that an engine was reused.
func TestRunSequenceMatchesFresh(t *testing.T) {
	tiny := kernels.ScaleTiny.String()
	first := spec.RunSpec{Workload: "bfs-citation", Scale: tiny, Model: "dtbl", Scheduler: "adaptive-bind"}
	pair := spec.RunSpec{Workload: "bfs-citation", Scale: tiny, Model: "dtbl", Scheduler: "adaptive-bind",
		NumSMX: 12, SchedulerParams: &spec.SchedulerParams{ClusterSize: 2}}
	pairRR := pair
	pairRR.Scheduler = "rr"
	reuse := spec.RunSpec{Workload: "amr", Scale: tiny, Model: "cdp", Scheduler: "smx-bind", Attribution: true}
	lrr := spec.RunSpec{Workload: "join-uniform", Scale: tiny, Model: "dtbl", Scheduler: "tb-pri", WarpPolicy: "lrr"}
	twoLevel := spec.RunSpec{Workload: "bht", Scale: tiny, Model: "cdp", Scheduler: "adaptive-bind",
		WarpPolicy: "two-level", Audit: true}
	dense := spec.RunSpec{Workload: "amr", Scale: tiny, Model: "dtbl", Scheduler: "rr", DenseClock: true}
	canceled := spec.RunSpec{Workload: "bfs-citation", Scale: tiny, Model: "cdp", Scheduler: "smx-bind", DenseClock: true}
	small := config.SmallTest()

	type cell struct {
		name string
		run  func() (*gpu.Result, error)
	}
	specCell := func(s spec.RunSpec, base *config.GPU) cell {
		return cell{s.Workload + "/" + s.Model + "/" + s.Scheduler, func() (*gpu.Result, error) {
			sim, _, err := s.BuildOn(base, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sim.Run()
		}}
	}
	sequence := []cell{
		specCell(first, nil),
		specCell(pair, nil),
		specCell(pairRR, nil),
		specCell(reuse, nil),
		{"deadlock", deadlockCell(t)},
		specCell(lrr, nil),
		// Canceled at the first dispatch, the dense engine stops at its
		// first cancellation poll with blocks resident and kernels queued.
		{"canceled", func() (*gpu.Result, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sim, _, err := canceled.BuildWith(func(g *gpu.Options) {
				g.TraceDispatch = func(*gpu.KernelInstance, int, int, uint64) { cancel() }
			})
			if err != nil {
				t.Fatal(err)
			}
			return sim.RunContext(ctx)
		}},
		specCell(twoLevel, nil),
		specCell(dense, nil),
		specCell(first, &small),
		specCell(first, nil),
	}

	digest := func(c cell) string {
		t.Helper()
		res, err := c.run()
		if err != nil {
			return "error: " + err.Error()
		}
		if res.DRAMTransactions != res.L2.Accesses-res.L2.Hits {
			t.Errorf("%s: %d DRAM transactions, want L2 misses %d", c.name, res.DRAMTransactions, res.L2.Misses())
		}
		return resultDigest(t, res)
	}
	fresh := make([]string, len(sequence))
	for i, c := range sequence {
		// Two collections empty every sync.Pool, so the cell runs on an
		// engine of its own.
		runtime.GC()
		runtime.GC()
		fresh[i] = digest(c)
	}
	for _, want := range []struct {
		cell   int
		prefix string
	}{{4, "error: gpu: deadlock"}, {6, "error: gpu: run canceled"}} {
		if got := fresh[want.cell]; !strings.HasPrefix(got, want.prefix) {
			t.Fatalf("cell %d (%s) ended %.60q, want %q", want.cell, sequence[want.cell].name, got, want.prefix)
		}
	}
	for i, c := range sequence {
		if got := digest(c); got != fresh[i] {
			t.Errorf("cell %d (%s): %.80s in sequence, %.80s fresh", i, c.name, got, fresh[i])
		}
	}
}

// deadlockCell is a Table I machine with a two-entry KMU pool and four KDU
// entries, filled with CDP parents that each launch more children than the
// pool and KDU can absorb while the parents hold every TB slot: a circular
// wait the watchdog reports.
func deadlockCell(t *testing.T) func() (*gpu.Result, error) {
	cfg := config.KeplerK20c()
	cfg.KMUPendingCapacity, cfg.MaxConcurrentKernels = 2, 4
	child := isa.NewKernel("deadlock-child").Add(isa.NewTB(32).Compute(1).Build()).Build()
	parents := isa.NewKernel("deadlock-parent")
	for i := 0; i < cfg.NumSMX*cfg.TBsPerSMX+8; i++ {
		b := isa.NewTB(32).Compute(2)
		for c := 0; c < 7; c++ {
			b.Launch(c, child)
		}
		parents.Add(b.Compute(2).Build())
	}
	prog := parents.Build()
	return func() (*gpu.Result, error) {
		sim, err := gpu.New(gpu.Options{Config: &cfg, Scheduler: core.NewRoundRobin(), Model: gpu.CDP, WatchdogInterval: 2_000})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.LaunchHost(prog); err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
}
