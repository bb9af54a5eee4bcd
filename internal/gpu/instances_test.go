package gpu

// Ownership of the kernel-instance records: they live in the engine, a run
// hands each one to Options.TraceKernel once as it ends, and the next run
// on the same engine refills the same chunks.

import (
	"errors"
	"slices"
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
)

// TestTraceKernelSeesEveryInstanceOnce: however a run ends, TraceKernel
// sees every instance the run created exactly once, in ID order, as the
// engine's own record, with the run's final cycle — and it sees them before
// the engine is released, while each record still holds its program.
func TestTraceKernelSeesEveryInstanceOnce(t *testing.T) {
	for _, tc := range exitCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var s *Simulator
			var seen []int
			var ends []uint64
			s = exitSim(t, tc, func(o *Options) {
				o.TraceKernel = func(ki *KernelInstance, end uint64) {
					if s.eng == nil {
						t.Fatal("TraceKernel called after the engine was released")
					}
					if ki != s.instance(ki.ID) {
						t.Errorf("instance %d is not the engine's record %d", ki.ID, ki.ID)
					}
					if ki.Prog == nil {
						t.Errorf("instance %d has no program", ki.ID)
					}
					seen = append(seen, ki.ID)
					ends = append(ends, end)
				}
			})
			if _, err := s.RunContext(tc.ctx); !tc.want(err) {
				t.Fatalf("RunContext: unexpected error %v", err)
			}
			if tc.prog != nil && len(seen) == 0 {
				t.Fatal("TraceKernel saw no instance")
			}
			if len(seen) != s.nextID {
				t.Errorf("TraceKernel saw %d instances, the run created %d", len(seen), s.nextID)
			}
			for i, id := range seen {
				if id != i {
					t.Fatalf("call %d saw instance %d: want every instance once, in ID order (saw %v)", i, id, seen)
				}
				if ends[i] != s.Cycle() {
					t.Fatalf("instance %d was handed end %d, the run ended at cycle %d", id, ends[i], s.Cycle())
				}
			}
		})
	}
}

// TestDeadlockStuckListPinned: the deadlock report reads the instances from
// the engine's chunks, across a chunk boundary, exactly as it read them
// from a list of every instance: 300 single-TB host kernels, four of which
// fill the KDU and stall launching children into a 2-entry KMU pool. The
// report is the same on a new engine and on the engines later runs draw.
func TestDeadlockStuckListPinned(t *testing.T) {
	const want = `gpu: deadlock at cycle 4000: no forward progress for 2000 cycles (302 kernels live, 298 at KMU, 4 KDU entries used)
  stuck: kernel 0 "host" (prio 0, smx -1, 1/1 dispatched, 0 done) executing
  stuck: kernel 1 "host" (prio 0, smx -1, 1/1 dispatched, 0 done) executing
  stuck: kernel 2 "host" (prio 0, smx -1, 1/1 dispatched, 0 done) executing
  stuck: kernel 3 "host" (prio 0, smx -1, 1/1 dispatched, 0 done) executing
  stuck: kernel 4 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 5 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 6 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 7 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 8 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 9 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 10 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 11 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 12 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 13 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 14 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  stuck: kernel 15 "host" (prio 0, smx -1, 0/1 dispatched, 0 done) kmu
  ... and 286 more`
	child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(1).Build()).Build()
	b := isa.NewTB(32).Compute(2)
	for c := 0; c < 3; c++ {
		b.Launch(c, child)
	}
	host := isa.NewKernel("host").Add(b.Compute(2).Build()).Build()
	for round := 0; round < 3; round++ {
		cfg := config.SmallTest()
		cfg.MaxConcurrentKernels = 4
		cfg.KMUPendingCapacity = 2
		cfg.CDPLaunchLatency = 100
		var incomplete []KernelInstance
		s := MustNew(Options{Config: &cfg, Scheduler: &allocFIFO{}, Model: CDP, WatchdogInterval: 2_000,
			TraceKernel: func(ki *KernelInstance, _ uint64) {
				if !ki.Complete() {
					incomplete = append(incomplete, *ki)
				}
			}})
		for i := 0; i < 300; i++ {
			if err := s.LaunchHost(host); err != nil {
				t.Fatal(err)
			}
		}
		_, err := s.Run()
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("round %d: want a deadlock, got %v", round, err)
		}
		if err.Error() != want {
			t.Fatalf("round %d: deadlock report\n%s\nwant\n%s", round, err, want)
		}
		if de.TotalStuck != len(incomplete) || len(de.Stuck) != 16 {
			t.Fatalf("round %d: %d stuck, %d listed; TraceKernel saw %d incomplete", round, de.TotalStuck, len(de.Stuck), len(incomplete))
		}
		for i, sk := range de.Stuck {
			ki := &incomplete[i]
			if sk.ID != ki.ID || sk.Name != ki.Prog.Name || sk.Priority != ki.Priority || sk.BoundSMX != ki.BoundSMX ||
				sk.Dispatched != ki.NextTB || sk.Done != ki.DoneTBs || sk.Total != len(ki.Prog.TBs) {
				t.Fatalf("round %d: stuck entry %d is %+v, TraceKernel saw %+v", round, i, sk, *ki)
			}
		}
	}
}

// TestInstanceChunksRecycled: a run on a recycled engine fills the chunks
// the engine's earlier runs filled instead of allocating its own, adds only
// the chunks it needs past those, and leaves them all for the next run: a
// program of 321 instances needs two chunks.
func TestInstanceChunksRecycled(t *testing.T) {
	child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(1).Build()).Build()
	kb := isa.NewKernel("parent")
	for tb := 0; tb < 8; tb++ {
		b := isa.NewTB(64)
		for c := 0; c < 40; c++ {
			b.Launch(c, child)
		}
		kb.Add(b.Compute(1).Build())
	}
	prog := kb.Build()
	recycled := 0
	for try := 0; try < 8; try++ {
		cfg := config.SmallTest()
		s := MustNew(Options{Config: &cfg, Scheduler: &allocFIFO{}, Model: DTBL})
		e := s.eng
		before := slices.Clone(e.kernels)
		if err := s.LaunchHost(prog); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.KernelCount != 1+8*40 {
			t.Fatalf("%d instances, want %d", res.KernelCount, 1+8*40)
		}
		if len(e.kernels) < 2 {
			t.Fatalf("the engine holds %d chunks after a run of %d instances", len(e.kernels), res.KernelCount)
		}
		if len(before) == 0 {
			continue // a new engine: the pool had none at hand
		}
		recycled++
		if !slices.Equal(e.kernels[:len(before)], before) || len(e.kernels) != max(len(before), 2) {
			t.Fatalf("a run of two chunks on a recycled engine with %d chunks left %d, not the same ones and no more than it needed",
				len(before), len(e.kernels))
		}
	}
	if recycled == 0 {
		t.Fatal("no run drew a recycled engine")
	}
}
