package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"laperm/internal/client"
	"laperm/internal/gpu"
	"laperm/internal/serve"
	"laperm/internal/spec"
)

func TestReferenceCoversEveryDrawableOp(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	need := func(table string, m map[string]string, key string) {
		t.Helper()
		if _, ok := m[key]; !ok {
			t.Errorf("%s reference has no entry for %s", table, key)
		}
	}
	for _, c := range cells([]string{"dtbl", "cdp"}) {
		need("small", ref.Small, c.key())
	}
	for _, c := range cells(gpu.ModelNames()) {
		need("tiny", ref.Tiny, c.key())
	}
	for _, op := range expOps() {
		need("experiments", ref.Experiments, op.key())
	}
	// Service-mix names its runs through the plan, sweeps included.
	for _, seed := range []uint64{1, 2, 3} {
		p := newSvcPlan(seed)
		for i := 0; i < 2000; i++ {
			st := p.at(i)
			ops := []runOp{st.A, st.B}
			if st.Kind == stepSweep {
				ops = append(st.Sweeps[0].cells(), st.Sweeps[1].cells()...)
			}
			for _, op := range ops {
				need("tiny", ref.Tiny, op.Cell.key())
			}
		}
	}
}

// The digest must not depend on where a Result came from: re-simulating a
// few tiny cells in-process and through lapermd's result.json must both
// reproduce the committed reference.
func TestDigestIsPinnedInProcessAndOverHTTP(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{CacheDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	cl := client.New(client.Config{BaseURL: ts.URL})
	ctx := context.Background()

	for _, c := range []cell{
		{"dtbl", "bfs-citation", "adaptive-bind"},
		{"cdp", "amr", "rr"},
		{"pmk", "join-gaussian", "work-steal"},
	} {
		local, err := simulate(c, "tiny", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(ref.Tiny, c.key(), local); err != nil {
			t.Errorf("in-process: %v", err)
		}
		v, err := cl.Run(ctx, runOp{c, gpu.DefaultMaxCycles - 1}.spec())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := cl.Artifact(ctx, v.ID, serve.ResultArtifact)
		if err != nil {
			t.Fatal(err)
		}
		res, err := decodeResult(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != local {
			t.Errorf("%s: result.json digest %s, in-process %s", c.key(), got, local)
		}
	}
}

// A deadlock verdict is an outcome with its cycle, not an error.
func TestOutcomeRecordsDeadlockVerdict(t *testing.T) {
	got, err := outcome(nil, &gpu.DeadlockError{Cycle: 150000})
	if err != nil || got != "deadlock@150000" {
		t.Fatalf("outcome = %q, %v", got, err)
	}
	if _, err := outcome(nil, &gpu.CycleLimitError{MaxCycles: 10}); err == nil {
		t.Fatal("outcome took a cycle-limit error for a verdict; want the error back")
	}
	sp := spec.RunSpec{Workload: "amr", Scale: "tiny"}
	sim, _, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	timed := *res
	timed.WallTime, timed.SimCyclesPerSec = 12345, 6.5
	if resultDigest(res) != resultDigest(&timed) {
		t.Fatal("the digest depends on the host-timing fields")
	}
}
