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
