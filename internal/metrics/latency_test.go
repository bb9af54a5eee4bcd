package metrics

import (
	"math"
	"strings"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.N() != 0 || s.Mean() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty series should answer zeros")
	}
	for _, x := range []float64{5, 1, 9, 3, 7} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %f", s.Mean())
	}
	if s.Max() != 9 {
		t.Errorf("Max = %f", s.Max())
	}
	if got := s.Percentile(50); got != 5 {
		t.Errorf("P50 = %f, want 5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %f, want 1", got)
	}
	if got := s.Percentile(100); got != 9 {
		t.Errorf("P100 = %f, want 9", got)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSeriesAddAfterPercentile(t *testing.T) {
	var s Series
	s.Add(2)
	_ = s.Percentile(50)
	s.Add(1) // must re-sort lazily
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 after late Add = %f, want 1", got)
	}
}

func TestSeriesPercentileNegativeValues(t *testing.T) {
	var s Series
	s.Add(-3)
	s.Add(-1)
	if got := s.Max(); got != -1 {
		t.Errorf("Max of negatives = %f, want -1", got)
	}
}

func TestAnalyzeChildLatencyEndToEnd(t *testing.T) {
	cfg := config.SmallTest()
	cfg.DTBLLaunchLatency = 40
	child := isa.NewKernel("c").Add(isa.NewTB(32).ComputeN(2, 10).Build()).Build()
	kb := isa.NewKernel("p")
	for i := 0; i < 6; i++ {
		kb.Add(isa.NewTB(32).Compute(2).Launch(0, child).Compute(50).Build())
	}
	cl := &ChildLatency{}
	sim := gpu.MustNew(gpu.Options{Config: &cfg, Scheduler: core.NewRoundRobin(), Model: gpu.DTBL, TraceKernel: cl.Observe})
	if err := sim.LaunchHost(kb.Build()); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if cl.LaunchToArrive.N() != 6 {
		t.Fatalf("observed %d children, want 6", cl.LaunchToArrive.N())
	}
	// Launch latency is exactly the configured constant.
	if got := cl.LaunchToArrive.Mean(); math.Abs(got-40) > 1e-9 {
		t.Errorf("launch latency mean = %f, want 40", got)
	}
	// Execution spans ten 2-cycle computes.
	if got := cl.DispatchToComplete.Mean(); got < 10 {
		t.Errorf("execution span mean = %f, implausibly small", got)
	}
	if cl.ArriveToDispatch.Percentile(50) < 0 {
		t.Error("negative queueing delay")
	}
	if !strings.Contains(cl.String(), "arrive->dispatch") {
		t.Errorf("String = %q", cl.String())
	}
}

func TestAnalyzeChildLatencySkipsHostKernels(t *testing.T) {
	cfg := config.SmallTest()
	k := isa.NewKernel("plain").Add(isa.NewTB(32).Compute(1).Build()).Build()
	cl := &ChildLatency{}
	sim := gpu.MustNew(gpu.Options{Config: &cfg, Scheduler: core.NewRoundRobin(), TraceKernel: cl.Observe})
	if err := sim.LaunchHost(k); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if cl.LaunchToArrive.N() != 0 {
		t.Error("host kernel counted as dynamic child")
	}
}

// TestQueueingDelayShrinksUnderLaPerm ties the latency breakdown to the
// paper's core claim: under Adaptive-Bind the arrive->dispatch delay is far
// below the RR baseline's on a contended machine.
func TestQueueingDelayShrinksUnderLaPerm(t *testing.T) {
	build := func() *isa.Kernel {
		child := isa.NewKernel("c").Add(isa.NewTB(64).ComputeN(4, 20).Build()).Build()
		kb := isa.NewKernel("p")
		for i := 0; i < 64; i++ {
			kb.Add(isa.NewTB(64).Compute(2).Launch(0, child).ComputeN(4, 20).Build())
		}
		return kb.Build()
	}
	delay := func(mk func(cfg *config.GPU) gpu.TBScheduler) float64 {
		cfg := config.SmallTest()
		cl := &ChildLatency{}
		sim := gpu.MustNew(gpu.Options{Config: &cfg, Scheduler: mk(&cfg), Model: gpu.DTBL, TraceKernel: cl.Observe})
		if err := sim.LaunchHost(build()); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return cl.ArriveToDispatch.Mean()
	}
	rr := delay(func(cfg *config.GPU) gpu.TBScheduler { return core.NewRoundRobin() })
	ab := delay(func(cfg *config.GPU) gpu.TBScheduler {
		return core.NewAdaptiveBind(cfg.NumSMX, cfg.MaxPriorityLevels)
	})
	if ab >= rr {
		t.Errorf("queueing delay: adaptive %f >= rr %f", ab, rr)
	}
}
