package gpu

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"laperm/internal/config"
	"laperm/internal/faults"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// exitCase is one way a run can end: the options and program that make it
// end so, and a check of the error RunContext returns.
type exitCase struct {
	name string
	opts Options
	prog *isa.Kernel // nil: nothing launched
	ctx  context.Context
	want func(error) bool
}

// exitCases returns a run for each way a run can end — a result, a
// deadlock, the cycle limit with launches in flight, cancellation, an
// injected fault or nothing to run — on a machine exitSim builds.
func exitCases(t *testing.T) []exitCase {
	t.Helper()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	fault, err := faults.Parse("gpu.run.poll=error:n=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Parents filling every TB slot, each launching more children than
	// the KMU pool and KDU can absorb: a circular wait.
	parents := isa.NewKernel("deadlock-parent")
	for i := 0; i < 16; i++ {
		b := isa.NewTB(32).Compute(2)
		for c := 0; c < 7; c++ {
			b.Launch(c, isa.NewKernel("deadlock-child").Add(isa.NewTB(32).Compute(1).Build()).Build())
		}
		parents.Add(b.Compute(2).Build())
	}
	deadlock := parents.Build()

	return []exitCase{
		{"result", Options{}, steadyProg(4, 40), context.Background(), func(err error) bool { return err == nil }},
		{"deadlock", Options{Model: CDP, WatchdogInterval: 2_000}, deadlock, context.Background(),
			func(err error) bool { var e *DeadlockError; return errors.As(err, &e) }},
		{"cycle-limit", Options{MaxCycles: 100}, steadyProg(4, 4000), context.Background(),
			func(err error) bool { var e *CycleLimitError; return errors.As(err, &e) }},
		{"cancel", Options{}, steadyProg(4, 40), canceled,
			func(err error) bool { var e *CanceledError; return errors.As(err, &e) }},
		{"fault", Options{Faults: fault}, steadyProg(4, 4000), context.Background(), faults.IsInjected},
		{"nothing-to-run", Options{}, nil, context.Background(), func(err error) bool { return err != nil }},
		{"dtbl-launches-in-flight", Options{Model: DTBL, MaxCycles: 40}, deadlock, context.Background(),
			func(err error) bool { var e *CycleLimitError; return errors.As(err, &e) && e.Live > 0 }},
	}
}

// exitSim builds tc's simulator, with edit applied to its options, on a
// small machine whose KMU pool and KDU a launching program can wedge, and
// launches tc's program.
func exitSim(t *testing.T, tc exitCase, edit func(*Options)) *Simulator {
	t.Helper()
	cfg := config.SmallTest()
	cfg.MaxConcurrentKernels = 4
	cfg.KMUPendingCapacity = 2
	cfg.CDPLaunchLatency = 100
	opts := tc.opts
	opts.Config, opts.Scheduler = &cfg, &allocFIFO{}
	if edit != nil {
		edit(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if tc.prog != nil {
		if err := s.LaunchHost(tc.prog); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRunContextReleasesMemory: however a run ends, the simulator hands its
// whole engine back and keeps no reference to it, so nothing after the run
// can read state a later run has drawn; and the released engine reaches
// nothing of the run — every instance record it filled is blank — so the
// pool keeps none of its kernel instances or programs alive.
func TestRunContextReleasesMemory(t *testing.T) {
	for _, tc := range exitCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := exitSim(t, tc, nil)
			e := s.eng
			if _, err := s.RunContext(tc.ctx); !tc.want(err) {
				t.Fatalf("RunContext: unexpected error %v", err)
			}
			if s.eng != nil || s.memsys != nil || s.smxs != nil || s.kmuQueue != nil || s.arrivals.items != nil {
				t.Error("simulator still holds its engine after the run")
			}
			if s.NumSMX() != 0 {
				t.Errorf("NumSMX = %d after the run, want 0", s.NumSMX())
			}
			if path := reachesRun(reflect.ValueOf(e), "engine", map[seenPtr]bool{}); path != "" {
				t.Errorf("released engine reaches its last run at %s", path)
			}
			if tc.prog != nil && len(e.kernels) == 0 {
				t.Error("released engine kept no instance records: the walk saw none")
			}
			for c, chunk := range e.kernels {
				for i := range chunk {
					if chunk[i] != (KernelInstance{}) {
						t.Fatalf("released engine's instance record %d is not blank: %+v", c*kiChunkSize+i, chunk[i])
					}
				}
			}
			if _, err := s.RunContext(tc.ctx); err == nil {
				t.Error("second RunContext succeeded")
			}
		})
	}
}

// runTypes are the types of the objects a released engine must not reach:
// the run's simulator, its kernel instances and its programs.
var runTypes = map[reflect.Type]bool{
	reflect.TypeOf(&Simulator{}):      true,
	reflect.TypeOf(&KernelInstance{}): true,
	reflect.TypeOf(&isa.Kernel{}):     true,
	reflect.TypeOf(&isa.TB{}):         true,
	reflect.TypeOf([]isa.Inst{}):      true,
}

// seenPtr is a pointer reachesRun has followed: a struct and its first
// field share an address, so the type tells them apart.
type seenPtr struct {
	addr uintptr
	typ  reflect.Type
}

// reachesRun walks everything v reaches — through pointers, interfaces,
// structs, arrays, maps, and slices up to their capacity — and returns the
// path to the first non-nil value of a runTypes type, or to a warp's
// pending-line slice (a window into a program's line arena), or "".
func reachesRun(v reflect.Value, path string, seen map[seenPtr]bool) string {
	if runTypes[v.Type()] && !v.IsNil() {
		return path
	}
	switch v.Kind() {
	case reflect.Pointer:
		k := seenPtr{v.Pointer(), v.Type()}
		if v.IsNil() || seen[k] {
			return ""
		}
		seen[k] = true
		return reachesRun(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return reachesRun(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			f := v.Field(i)
			if name == "pending" && f.Kind() == reflect.Slice && !f.IsNil() {
				return path + ".pending"
			}
			if p := reachesRun(f, path+"."+name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := reachesRun(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := reachesRun(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestReachesRunFindsRunState guards the walker: a live simulator's engine
// reaches the simulator itself, through its SMXs' event binding, and an
// engine whose instance record still names a program or a parent reaches
// them through its chunks.
func TestReachesRunFindsRunState(t *testing.T) {
	cfg := config.SmallTest()
	s, err := New(Options{Config: &cfg, Scheduler: &allocFIFO{}})
	if err != nil {
		t.Fatal(err)
	}
	if reachesRun(reflect.ValueOf(s.eng), "engine", map[seenPtr]bool{}) == "" {
		t.Fatal("a bound engine reaches no run state: the walker proves nothing")
	}
	for field, set := range map[string]func(*KernelInstance){
		"Prog":   func(ki *KernelInstance) { ki.Prog = steadyProg(1, 1) },
		"Parent": func(ki *KernelInstance) { ki.Parent = new(KernelInstance) },
	} {
		e := &engine{kernels: []*kiChunk{new(kiChunk), new(kiChunk)}}
		set(&e.kernels[1][kiChunkSize-1])
		want := fmt.Sprintf("engine.kernels[1][%d].%s", kiChunkSize-1, field)
		if path := reachesRun(reflect.ValueOf(e), "engine", map[seenPtr]bool{}); path != want {
			t.Errorf("walker found %q in an engine whose last record holds a %s, want %q", path, field, want)
		}
	}
}

// checkDrawn fails the test unless s's engine has exactly cfg's SMXs,
// numbered in order and idle, and a hierarchy equal to a new one.
func checkDrawn(t *testing.T, s *Simulator, cfg *config.GPU) {
	t.Helper()
	if len(s.smxs) != cfg.NumSMX {
		t.Fatalf("%d SMXs, want %d", len(s.smxs), cfg.NumSMX)
	}
	for i, x := range s.smxs {
		if x == nil || x.ID != i || !x.Idle() {
			t.Fatalf("SMX %d of %d is %v", i, cfg.NumSMX, x)
		}
	}
	if !reflect.DeepEqual(s.memsys, mem.NewSystem(cfg)) {
		t.Fatal("drawn memory hierarchy differs from a new one")
	}
}

// TestDrawEngineMatchesConfig: an engine drawn for a configuration — newly
// built, or recycled from a run of another SMX count or cluster size with
// the same cache shapes — has exactly the configuration's SMXs, numbered in
// order, and a hierarchy equal to a new one; an engine of another key is
// never drawn. A run of SMX counts that shrink and grow, within the kept
// slices' capacity and past it, draws one engine in turn wherever the pool
// keeps it.
func TestDrawEngineMatchesConfig(t *testing.T) {
	for _, n := range []int{5, 6, 3, 8, 13, 12, 13, 4} {
		cfg := config.SmallTest()
		cfg.NumSMX = n
		s := MustNew(Options{Config: &cfg, Scheduler: &allocFIFO{}})
		checkDrawn(t, s, &cfg)
		if err := s.LaunchHost(steadyProg(4, 40)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}

	base := config.SmallTest()
	same := map[string]func(*config.GPU){
		"timing":   func(g *config.GPU) { g.DRAMLatency *= 2 },
		"num-smx":  func(g *config.GPU) { g.NumSMX = 8 },
		"fewer":    func(g *config.GPU) { g.NumSMX = 2 },
		"clusters": func(g *config.GPU) { g.SMXsPerCluster = 2 },
	}
	other := map[string]func(*config.GPU){
		"l1-sets":       func(g *config.GPU) { g.L1Bytes *= 2 },
		"l1-mshrs":      func(g *config.GPU) { g.L1MSHRs++ },
		"l2-banks":      func(g *config.GPU) { g.L2Banks *= 2 },
		"warps-per-smx": func(g *config.GPU) { g.ThreadsPerSMX *= 2 },
		"table1":        func(g *config.GPU) { *g = config.KeplerK20c() },
	}
	for _, tc := range []struct {
		variants map[string]func(*config.GPU)
		sameKey  bool
	}{{same, true}, {other, false}} {
		for name, edit := range tc.variants {
			t.Run(name, func(t *testing.T) {
				cfg := base
				edit(&cfg)
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
				if (engineKeyOf(&cfg) == engineKeyOf(&base)) != tc.sameKey {
					t.Fatalf("variant shares the base key: %t, want %t", !tc.sameKey, tc.sameKey)
				}
				old := MustNew(Options{Config: &base, Scheduler: &allocFIFO{}})
				if err := old.LaunchHost(steadyProg(4, 40)); err != nil {
					t.Fatal(err)
				}
				e := old.eng
				if _, err := old.Run(); err != nil {
					t.Fatal(err)
				}
				s := MustNew(Options{Config: &cfg, Scheduler: &allocFIFO{}})
				if !tc.sameKey && s.eng == e {
					t.Fatal("drew a released engine of another key")
				}
				checkDrawn(t, s, &cfg)
			})
		}
	}
}

// panicSched is a scheduler with a bug: its first Select panics.
type panicSched struct{ allocFIFO }

func (*panicSched) Select(Dispatcher) (*KernelInstance, int) { panic("scheduler bug") }

// TestPanickedRunKeepsEngine: a run that panics part way leaves its engine
// in whatever state the panic interrupted, so it is never handed back for
// another run to draw.
func TestPanickedRunKeepsEngine(t *testing.T) {
	cfg := config.SmallTest()
	s := MustNew(Options{Config: &cfg, Scheduler: &panicSched{}})
	if err := s.LaunchHost(steadyProg(4, 40)); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("run did not panic")
			}
		}()
		s.Run()
	}()
	if s.eng == nil {
		t.Fatal("a panicked run released its engine")
	}
}

// TestEnginePoolConcurrent: simulators built, run and released from several
// goroutines at once, over machines of two keys and two SMX counts, share
// the engine pools without a race, and every run's Result equals the one the
// same machine gives run alone.
func TestEnginePoolConcurrent(t *testing.T) {
	machines := make([]config.GPU, 4)
	for i := range machines {
		machines[i] = config.SmallTest()
		machines[i].NumSMX = 4 + 2*(i%2)
		if i >= 2 {
			machines[i].L1MSHRs = 8
		}
	}
	run := func(cfg *config.GPU) (*Result, error) {
		s, err := New(Options{Config: cfg, Scheduler: &allocFIFO{}})
		if err != nil {
			return nil, err
		}
		if err := s.LaunchHost(steadyProg(4, 40)); err != nil {
			return nil, err
		}
		res, err := s.Run()
		if res != nil {
			res.WallTime, res.SimCyclesPerSec = 0, 0
		}
		return res, err
	}
	want := make([]*Result, len(machines))
	for i := range machines {
		res, err := run(&machines[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				m := (g + i) % len(machines)
				res, err := run(&machines[m])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, want[m]) {
					t.Errorf("goroutine %d, run %d: machine %d's Result differs from its lone run", g, i, m)
				}
			}
		}(g)
	}
	wg.Wait()
}
