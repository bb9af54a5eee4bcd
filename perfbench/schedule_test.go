package main

import (
	"math"
	"slices"
	"testing"
)

// opList renders the first n ops of a workload's schedule for a seed.
func opList(t *testing.T, name string, seed uint64, n int) []string {
	t.Helper()
	var at func(i int) string
	switch name {
	case "sim-dtbl", "sim-cdp":
		p := newBlockPlan(cells([]string{name[len("sim-"):]}), seed)
		at = func(i int) string { return p.at(i).key() }
	case "experiments-tiny":
		p := newBlockPlan(expOps(), seed)
		at = func(i int) string { return p.at(i).key() }
	case "service-mix":
		p := newSvcPlan(seed)
		at = func(i int) string { return p.at(i).String() }
	default:
		t.Fatalf("no schedule for %s", name)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = at(i)
	}
	return out
}

func TestSchedulesArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range workloads {
		const n = 400
		a, b := opList(t, w.name, 7, n), opList(t, w.name, 7, n)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", w.name)
		}
		if c := opList(t, w.name, 8, n); slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
	}
}

// Every block of a batch workload runs each of its ops once, so runs with
// different seeds do the same work.
func TestBlocksRunEveryOpOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		items []string
	}{
		{"sim-dtbl", keys(cells([]string{"dtbl"}))},
		{"sim-cdp", keys(cells([]string{"cdp"}))},
		{"experiments-tiny", expKeys()},
	} {
		n := len(tc.items)
		ops := opList(t, tc.name, 3, 3*n)
		for b := 0; b < 3; b++ {
			block := slices.Clone(ops[b*n : (b+1)*n])
			slices.Sort(block)
			want := slices.Clone(tc.items)
			slices.Sort(want)
			if !slices.Equal(block, want) {
				t.Errorf("%s: block %d is not a permutation of the %d ops", tc.name, b, n)
			}
		}
	}
}

func keys(cs []cell) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.key()
	}
	return out
}

func expKeys() []string {
	var out []string
	for _, op := range expOps() {
		out = append(out, op.key())
	}
	return out
}

func TestServiceStepMix(t *testing.T) {
	want := map[string]float64{stepCold: 0.5, stepCoalesce: 0.2, stepCached: 0.2, stepSweep: 0.1}
	for _, seed := range []uint64{1, 2, 99} {
		p := newSvcPlan(seed)
		const steps = 1500
		got := map[string]float64{}
		submitted := map[runOp]bool{}
		budgets := map[uint64]bool{}
		for i := 0; i < steps; i++ {
			st := p.at(i)
			got[st.Kind] += 1.0 / steps
			switch st.Kind {
			case stepCold, stepCoalesce:
				if st.Kind == stepCoalesce && st.A != st.B {
					t.Fatalf("seed %d step %d: coalesce pair submits two different runs", seed, i)
				}
				if st.Kind == stepCold && st.A == st.B {
					t.Fatalf("seed %d step %d: cold pair submits one run twice", seed, i)
				}
				for _, op := range []runOp{st.A, st.B} {
					if submitted[op] || budgets[op.MaxCycles] && st.A != op {
						t.Fatalf("seed %d step %d: new run %s@%d was submitted before", seed, i, op.Cell.key(), op.MaxCycles)
					}
					budgets[op.MaxCycles] = true
				}
			case stepCached:
				for _, op := range []runOp{st.A, st.B} {
					if !submitted[op] {
						t.Fatalf("seed %d step %d: cached run %s@%d was never submitted", seed, i, op.Cell.key(), op.MaxCycles)
					}
				}
			case stepSweep:
				a, b := st.Sweeps[0], st.Sweeps[1]
				if budgets[a.MaxCycles] || a.MaxCycles != b.MaxCycles {
					t.Fatalf("seed %d step %d: sweeps have budgets %d and %d, want one new one", seed, i, a.MaxCycles, b.MaxCycles)
				}
				budgets[a.MaxCycles] = true
				// Two tenants whose sweeps share exactly A's second workload.
				if a.Tenant == b.Tenant || a.Workloads[1] != b.Workloads[0] || a.Workloads[0] == a.Workloads[1] ||
					b.Workloads[0] == b.Workloads[1] || a.Workloads[0] == b.Workloads[1] {
					t.Fatalf("seed %d step %d: sweeps %+v and %+v do not overlap in one workload", seed, i, a, b)
				}
				for _, s := range st.Sweeps {
					for _, c := range s.cells() {
						submitted[c] = true
					}
				}
				continue
			}
			submitted[st.A], submitted[st.B] = true, true
		}
		if first := p.at(0).Kind; first != stepCold {
			t.Errorf("seed %d: first step is %s, want cold", seed, first)
		}
		for kind, share := range want {
			if math.Abs(got[kind]-share) > 0.05 {
				t.Errorf("seed %d: %s steps are %.3f of %d, want %.2f ± 0.05", seed, kind, got[kind], steps, share)
			}
		}
	}
}
