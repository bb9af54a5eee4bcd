package kernels

import (
	"slices"
	"testing"

	"laperm/internal/isa"
)

func TestNestedWorkloadValidates(t *testing.T) {
	k := Nested().Build(ScaleTiny)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	// Depth-4 nesting: each TB launches two children for 4 generations,
	// so each of the 16 tiny-scale roots yields 2+4+8+16 = 30 descendant
	// grids.
	grids := 0
	k.Walk(func(parent, child *isa.Kernel) {
		if parent != nil {
			grids++
		}
	})
	if want := 16 * 30; grids != want {
		t.Errorf("descendant grids = %d, want %d", grids, want)
	}
}

// TestNestedWorkloadMemoized: Nested builds its program once per scale,
// like the Table II programs, and every later Build (one per levels cell
// and sweep point) returns that shared tree.
func TestNestedWorkloadMemoized(t *testing.T) {
	tiny := Nested().Build(ScaleTiny)
	if again := Nested().Build(ScaleTiny); again != tiny {
		t.Error("second ScaleTiny build returned a new program")
	}
	if Nested().Build(ScaleSmall) == tiny {
		t.Error("ScaleSmall build returned the ScaleTiny program")
	}
	if allocs := testing.AllocsPerRun(10, func() { Nested().Build(ScaleTiny) }); allocs != 0 {
		t.Errorf("memoized Build: %.1f allocs, want 0", allocs)
	}
}

// TestNestedResolvesButIsNotTableII: a RunSpec names nested-4 like any
// workload, but Table II's listings leave it out.
func TestNestedResolvesButIsNotTableII(t *testing.T) {
	w, err := Lookup("nested-4")
	if err != nil || w.Name != "nested-4" || w.Build == nil {
		t.Fatalf("Lookup(nested-4) = %+v, %v", w, err)
	}
	if slices.Contains(Names(), "nested-4") {
		t.Error("Names lists nested-4")
	}
	for _, w := range All() {
		if w.Name == "nested-4" {
			t.Error("All lists nested-4")
		}
	}
}

// TestByNameAllocatesNothing: the spec assembler resolves a workload per
// simulated cell, so a lookup must not rebuild the Table II listing.
func TestByNameAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, func() { ByName("sssp-cage15") }); allocs != 0 {
		t.Errorf("ByName: %.1f allocs, want 0", allocs)
	}
}
