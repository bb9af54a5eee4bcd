package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/isa"
)

func runTraced(t *testing.T) (*Recorder, *gpu.Simulator) {
	t.Helper()
	cfg := config.SmallTest()
	cfg.DTBLLaunchLatency = 25
	rec := NewRecorder()
	sim := gpu.MustNew(gpu.Options{
		Config:        &cfg,
		Scheduler:     core.NewRoundRobin(),
		Model:         gpu.DTBL,
		TraceDispatch: rec.DispatchHook(),
		TraceKernel:   rec.KernelHook(),
	})
	child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(5).Build()).Build()
	kb := isa.NewKernel("host")
	for i := 0; i < 4; i++ {
		kb.Add(isa.NewTB(32).Compute(2).Launch(0, child).Compute(10).Build())
	}
	if err := sim.LaunchHost(kb.Build()); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	rec.FinishRun()
	return rec, sim
}

func TestRecorderCapturesFullLifecycle(t *testing.T) {
	rec, sim := runTraced(t)
	// 5 kernels (host + 4 children): launched, arrived, completed each,
	// plus 8 TB dispatches (4 host TBs + 4 child TBs).
	if want := 5*3 + 8; rec.Len() != want {
		t.Fatalf("events = %d, want %d", rec.Len(), want)
	}
	sum := rec.Summary()
	if sum["host"][TBDispatched] != 4 || sum["child"][TBDispatched] != 4 {
		t.Errorf("summary = %v", sum)
	}
	if sum["child"][KernelCompleted] != 4 {
		t.Errorf("child completions = %d", sum["child"][KernelCompleted])
	}
	_ = sim
}

func TestEventsCycleOrderedAndConsistent(t *testing.T) {
	rec, _ := runTraced(t)
	var last uint64
	perKernel := make(map[int]map[Kind]uint64)
	for _, e := range rec.Events() {
		if e.Cycle < last {
			t.Fatalf("events out of order at cycle %d", e.Cycle)
		}
		last = e.Cycle
		if perKernel[e.Kernel] == nil {
			perKernel[e.Kernel] = make(map[Kind]uint64)
		}
		perKernel[e.Kernel][e.Kind] = e.Cycle
	}
	for id, ks := range perKernel {
		if ks[KernelArrived] < ks[KernelLaunched] {
			t.Errorf("kernel %d arrived before launch", id)
		}
		if ks[KernelCompleted] < ks[KernelArrived] {
			t.Errorf("kernel %d completed before arrival", id)
		}
	}
}

func TestParentLinks(t *testing.T) {
	rec, _ := runTraced(t)
	for _, e := range rec.Events() {
		if e.Name == "host" && e.Parent != -1 {
			t.Errorf("host kernel has parent %d", e.Parent)
		}
		if e.Name == "child" && e.Parent == -1 {
			t.Error("child kernel missing parent link")
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	rec, _ := runTraced(t)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if e.Kind == "" || e.Name == "" {
			t.Fatalf("line %d: incomplete event %+v", n, e)
		}
		n++
	}
	if n != rec.Len() {
		t.Errorf("JSONL lines = %d, want %d", n, rec.Len())
	}
}

func TestDispatchEventFields(t *testing.T) {
	rec, _ := runTraced(t)
	for _, e := range rec.Events() {
		switch e.Kind {
		case TBDispatched:
			if e.SMX < 0 || e.TB < 0 {
				t.Errorf("dispatch event missing placement: %+v", e)
			}
		default:
			if e.SMX != -1 || e.TB != -1 {
				t.Errorf("lifecycle event carries placement: %+v", e)
			}
		}
	}
}

// runBackpressured runs a DTBL workload against a tiny aggregation buffer so
// the recorder sees launch backpressure through QueueHook.
func runBackpressured(t *testing.T, policy config.OverflowPolicy) (*Recorder, *gpu.Result) {
	t.Helper()
	cfg := config.SmallTest()
	cfg.DTBLAggBufferEntries = 1
	cfg.DTBLOverflowPolicy = policy
	rec := NewRecorder()
	sim := gpu.MustNew(gpu.Options{
		Config:     &cfg,
		Scheduler:  core.NewRoundRobin(),
		Model:      gpu.DTBL,
		TraceQueue: rec.QueueHook(),
	})
	child := isa.NewKernel("bp-child").Add(isa.NewTB(32).Compute(4).Build()).Build()
	kb := isa.NewKernel("bp-host")
	for i := 0; i < 2; i++ {
		b := isa.NewTB(32).Compute(2)
		for c := 0; c < 4; c++ {
			b.Launch(c, child).Compute(2)
		}
		kb.Add(b.Build())
	}
	if err := sim.LaunchHost(kb.Build()); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec.FinishRun()
	return rec, res
}

func TestQueueHookRecordsStallEpisodes(t *testing.T) {
	rec, res := runBackpressured(t, config.StallWarp)
	var stalls int
	for _, e := range rec.Events() {
		if e.Kind != LaunchStalled {
			continue
		}
		stalls++
		if e.Kernel != -1 {
			t.Errorf("stall event carries kernel ID %d; the launch has no instance yet", e.Kernel)
		}
		if e.Queue != "agg" {
			t.Errorf("stall queue = %q, want agg", e.Queue)
		}
		if e.Parent < 0 {
			t.Errorf("stall event missing launching parent: %+v", e)
		}
		if e.Name != "bp-child" {
			t.Errorf("stall names %q, want the child grid", e.Name)
		}
	}
	if stalls == 0 {
		t.Fatal("no LaunchStalled events recorded against a 1-entry buffer")
	}
	if int64(stalls) != res.LaunchStallEpisodes {
		t.Errorf("recorded %d stall events, result counts %d episodes", stalls, res.LaunchStallEpisodes)
	}
}

func TestQueueHookRecordsOverflows(t *testing.T) {
	rec, res := runBackpressured(t, config.DropToKMU)
	var overflows int
	for _, e := range rec.Events() {
		if e.Kind != QueueOverflow {
			continue
		}
		overflows++
		if e.Queue != "agg" {
			t.Errorf("overflow queue = %q, want agg", e.Queue)
		}
	}
	if overflows == 0 {
		t.Fatal("no QueueOverflow events recorded under DropToKMU")
	}
	if int64(overflows) != res.QueueOverflows {
		t.Errorf("recorded %d overflow events, result counts %d", overflows, res.QueueOverflows)
	}
}

func TestQueueEventsRoundTripJSONL(t *testing.T) {
	rec, _ := runBackpressured(t, config.StallWarp)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sawQueue := false
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		switch e.Kind {
		case LaunchStalled, QueueOverflow:
			sawQueue = true
			if e.Queue == "" {
				t.Fatalf("backpressure event lost its queue field: %s", sc.Text())
			}
		default:
			if bytes.Contains(sc.Bytes(), []byte(`"queue"`)) {
				t.Fatalf("non-backpressure event serialises a queue field: %s", sc.Text())
			}
		}
	}
	if !sawQueue {
		t.Fatal("no backpressure events in the JSONL stream")
	}
}
