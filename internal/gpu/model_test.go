package gpu_test

import (
	"reflect"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
)

// TestModelRegistryOrderAndNames pins the registration order — it indexes
// the Model constants and orders every matrix, CSV, and golden file.
func TestModelRegistryOrderAndNames(t *testing.T) {
	if want := []string{"cdp", "dtbl", "pmk"}; !reflect.DeepEqual(gpu.ModelNames(), want) {
		t.Errorf("ModelNames() = %v, want %v", gpu.ModelNames(), want)
	}
	if want := []gpu.Model{gpu.CDP, gpu.DTBL, gpu.PMK}; !reflect.DeepEqual(gpu.Models(), want) {
		t.Errorf("Models() = %v, want %v", gpu.Models(), want)
	}
	for _, m := range gpu.Models() {
		info, ok := m.Info()
		if !ok {
			t.Fatalf("model %d has no registry entry", int(m))
		}
		if m.String() != info.Name {
			t.Errorf("model %d String() = %q, registry name %q", int(m), m.String(), info.Name)
		}
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
		if got, ok := gpu.ModelByName(info.Name); !ok || got != m {
			t.Errorf("ModelByName(%q) = %v, %v, want %v", info.Name, got, ok, m)
		}
	}
	if _, ok := gpu.ModelByName("sycl"); ok {
		t.Error("ModelByName accepted an unknown name")
	}
	if _, ok := gpu.Model(99).Info(); ok {
		t.Error("Info() accepted an out-of-range handle")
	}
}

// TestModelLaunchPaths checks each built-in's descriptor against its
// configuration fields.
func TestModelLaunchPaths(t *testing.T) {
	cfg := config.KeplerK20c()
	path := func(m gpu.Model) gpu.LaunchPath {
		info, ok := m.Info()
		if !ok {
			t.Fatalf("no registry entry for %v", m)
		}
		return info.Path(&cfg)
	}
	if p := path(gpu.CDP); p.Direct {
		t.Errorf("cdp path is direct: %+v", p)
	}
	if p := path(gpu.DTBL); !p.Direct || p.Queue != "agg" ||
		p.Capacity != cfg.DTBLAggBufferEntries || p.Latency != cfg.DTBLLaunchLatency {
		t.Errorf("dtbl path = %+v", p)
	}
	if p := path(gpu.PMK); !p.Direct || p.Queue != "taskq" ||
		p.Capacity != cfg.PMKTaskQueueEntries || p.Latency != cfg.PMKLaunchLatency || p.OverflowToKMU {
		t.Errorf("pmk path = %+v", p)
	}
}

// TestNewRejectsUnknownModel: the simulator constructor must resolve the
// model against the registry, not accept an arbitrary integer.
func TestNewRejectsUnknownModel(t *testing.T) {
	cfg := config.SmallTest()
	_, err := gpu.New(gpu.Options{Config: &cfg, Scheduler: core.NewRoundRobin(), Model: gpu.Model(99)})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestPMKBypassesKMU: under the persistent microkernel, no child launch ever
// touches the KMU pending pool — PeakKMUPending stays at zero even with a
// deep dynamic workload (only host kernels route via the KMU, and those
// never hold pending-pool entries).
func TestPMKBypassesKMU(t *testing.T) {
	cfg := config.SmallTest()
	sim := gpu.MustNew(gpu.Options{
		Config:    &cfg,
		Scheduler: core.NewRoundRobin(),
		Model:     gpu.PMK,
		Audit:     true,
	})
	mustLaunch(t, sim, launchingKernel(6, 3))
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakKMUPending != 0 {
		t.Errorf("PeakKMUPending = %d under pmk, want 0", res.PeakKMUPending)
	}
	if res.PeakAggEntries == 0 {
		t.Error("PeakAggEntries = 0 under pmk: task-queue entries not tracked")
	}
	if res.DynamicKernelCount != 6 {
		t.Errorf("DynamicKernelCount = %d, want 6", res.DynamicKernelCount)
	}
}

// TestPMKLaunchLatency: a child's arrival trails its launch by exactly the
// configured task-queue latency.
func TestPMKLaunchLatency(t *testing.T) {
	cfg := config.SmallTest()
	cfg.PMKLaunchLatency = 30
	var kept []gpu.KernelInstance
	sim := gpu.MustNew(gpu.Options{Config: &cfg, Scheduler: core.NewRoundRobin(), Model: gpu.PMK,
		TraceKernel: keepKernels(&kept)})
	mustLaunch(t, sim, launchingKernel(2, 2))
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	children := 0
	for _, ki := range kept {
		if ki.Parent == nil {
			continue
		}
		children++
		if ki.ArriveCycle != ki.LaunchCycle+30 {
			t.Errorf("kernel %d: arrive %d, launch %d, want +30", ki.ID, ki.ArriveCycle, ki.LaunchCycle)
		}
	}
	if children == 0 {
		t.Fatal("no dynamic children ran")
	}
}

// TestPMKQueueFullStallsProducer: a bounded task queue has no KMU fallback,
// so saturating it must produce launch-stall episodes — and the run must
// still complete with nothing demoted to the KMU.
func TestPMKQueueFullStallsProducer(t *testing.T) {
	cfg := config.SmallTest()
	cfg.PMKTaskQueueEntries = 1
	var overflow int
	sim := gpu.MustNew(gpu.Options{
		Config:    &cfg,
		Scheduler: core.NewRoundRobin(),
		Model:     gpu.PMK,
		Audit:     true,
		TraceQueue: func(ev gpu.QueueEvent) {
			if ev.Kind == gpu.QueueOverflow {
				overflow++
			}
		},
	})
	mustLaunch(t, sim, overflowWorkload(3, 4))
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LaunchStallEpisodes == 0 {
		t.Error("no launch stalls with a 1-entry task queue")
	}
	if overflow != 0 {
		t.Errorf("%d overflow demotions under pmk, want 0 (no KMU fallback)", overflow)
	}
	if res.PeakKMUPending != 0 {
		t.Errorf("PeakKMUPending = %d: a pmk launch reached the KMU", res.PeakKMUPending)
	}
	if res.PeakAggEntries != 1 {
		t.Errorf("PeakAggEntries = %d with a 1-entry queue", res.PeakAggEntries)
	}
}

// TestRegisterModelPanics pins the registration-time guards. Registration is
// append-only global state, so this test uses throwaway names.
func TestRegisterModelPanics(t *testing.T) {
	expectPanic := func(why string, info gpu.ModelInfo) {
		defer func() {
			if recover() == nil {
				t.Errorf("RegisterModel with %s did not panic", why)
			}
		}()
		gpu.RegisterModel(info)
	}
	path := func(cfg *config.GPU) gpu.LaunchPath { return gpu.LaunchPath{} }
	expectPanic("empty name", gpu.ModelInfo{Path: path})
	expectPanic("nil path", gpu.ModelInfo{Name: "x"})
	expectPanic("duplicate name", gpu.ModelInfo{Name: "cdp", Path: path})
}
