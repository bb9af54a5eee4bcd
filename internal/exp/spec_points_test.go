package exp

import (
	"testing"

	"laperm/internal/kernels"
	"laperm/internal/spec"
)

// TestStudyPointsAreRunSpecs: every point of every study at tiny scale is a
// valid RunSpec, memoized under its own hash, whose canonical form parses
// back to the same hash — so any point can be submitted to lapermd as is.
func TestStudyPointsAreRunSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study on its default workloads")
	}
	for _, e := range All() {
		o := fastOptions()
		o.Scale = kernels.ScaleTiny
		pts, err := StudyPoints(e.ID, o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, p := range pts {
			if err := p.Spec.Validate(); err != nil {
				t.Errorf("%s: %+v: %v", e.ID, p.Spec, err)
				continue
			}
			c, err := p.Spec.Canonical()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			back, err := spec.Parse(c)
			if err != nil {
				t.Fatalf("%s: canonical form %s does not parse: %v", e.ID, c, err)
			}
			if h, err := back.Hash(); err != nil || h != p.Hash {
				t.Errorf("%s: %s round-trips to hash %s (%v), memoized under %s", e.ID, c, h, err, p.Hash)
			}
		}
	}
}

// TestFig9SimulatesOnlyItsModel: a standalone Figure 9 panel renders one
// model, so it simulates that model's cells and no others.
func TestFig9SimulatesOnlyItsModel(t *testing.T) {
	o := fastOptions("amr", "bfs-citation")
	pts, err := StudyPoints("fig9b", o)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(o.Workloads) * len(SchedulerNames); len(pts) != want {
		t.Errorf("fig9b simulated %d points over %d workloads, want %d", len(pts), len(o.Workloads), want)
	}
	for _, p := range pts {
		if p.Spec.Model != "dtbl" {
			t.Errorf("fig9b simulated %s/%s/%s", p.Spec.Workload, p.Spec.Model, p.Spec.Scheduler)
		}
	}
}
