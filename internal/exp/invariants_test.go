package exp

import (
	"fmt"
	"reflect"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
)

// TestTableIIInvariants checks, on every Table II workload at tiny scale on
// the SmallTest machine, the three invariants the cross-scheduler and
// cross-model comparisons of Figs. 7–9 rest on:
//
//  1. every (model, scheduler) cell of a workload executes the same work;
//  2. every cell is deterministic: the matrix at 1 and at 4 workers gives
//     bit-identical Results;
//  3. a strictly binding scheduler never dispatches a child TB outside its
//     bound SMX's cluster, under any model.
//
// A failure names the cell; `lapermsim -out DIR` on it writes its event
// trace.
func TestTableIIInvariants(t *testing.T) {
	cfg := config.SmallTest()
	o := Options{Scale: kernels.ScaleTiny, Config: &cfg, Workers: 1}
	serial, err := RunMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	parallel, err := RunMatrix(o)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range serial.Workloads {
		first := Cell{w.Name, Models[0], SchedulerNames[0]}
		want := serial.Results[first].ThreadInsts
		for _, model := range Models {
			for _, sched := range SchedulerNames {
				a := serial.Get(w.Name, model, sched)
				if a.ThreadInsts != want {
					t.Errorf("%s/%v/%s: %d thread-insts, %v/%s %d", w.Name, model, sched,
						a.ThreadInsts, first.Model, first.Sched, want)
				}
				if b := parallel.Get(w.Name, model, sched); !reflect.DeepEqual(a, b) {
					t.Errorf("%s/%v/%s: Result differs between 1 and 4 workers:\n  1: %v\n  4: %v", w.Name, model, sched, a, b)
				}
			}
		}
	}

	for _, info := range core.Schedulers() {
		if !info.StrictBinding {
			continue
		}
		for _, model := range Models {
			children := 0
			for _, w := range serial.Workloads {
				off, first := 0, ""
				s := o.runSpec(model)
				s.Workload, s.Scheduler = w.Name, info.Name
				sim, _, err := s.BuildOn(&cfg, func(g *gpu.Options) {
					g.TraceDispatch = func(ki *gpu.KernelInstance, tbIndex, smxID int, cycle uint64) {
						if ki.Parent == nil {
							return
						}
						children++
						if cfg.ClusterOf(smxID) != cfg.ClusterOf(ki.BoundSMX) {
							if off == 0 {
								first = fmt.Sprintf("TB %d of kernel %d on SMX %d, bound to SMX %d", tbIndex, ki.ID, smxID, ki.BoundSMX)
							}
							off++
						}
					}
				})
				if err == nil {
					_, err = sim.Run()
				}
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", w.Name, model, info.Name, err)
				}
				if off > 0 {
					t.Errorf("%s/%v/%s: %d child TBs off their bound cluster, first %s", w.Name, model, info.Name, off, first)
				}
			}
			t.Logf("%v/%s: %d child TBs dispatched", model, info.Name, children)
			if children == 0 {
				t.Errorf("%v/%s: no child TB dispatched, so binding went unchecked", model, info.Name)
			}
		}
	}
}
