package spec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRunSpec drives the untrusted RunSpec surface: whatever Parse accepts,
// Validate must not panic, and Parse → Canonical → Parse → Canonical must be
// idempotent (the canonical form is a fixed point, so its hash is stable).
func FuzzRunSpec(f *testing.F) {
	for _, seed := range []string{
		goldenCanonical,
		`{"workload":"amr","model":"cdp","scale":"tiny"}`,
		`{"scale":"tiny","model":"cdp","workload":"amr"}`,
		`{"workload":"bht","scheduler":"smx-bind","scheduler_params":{"max_levels":2,"cluster_size":2}}`,
		`{"workload":"amr","warp_policy":"lrr","max_cycles":1000,"sample_every":64,"attribution":true,"audit":true,"dense_clock":true}`,
		`{"spec_version":2,"workload":"amr"}`,
		`{"workload":"amr","scael":"tiny"}`,
		`{"workload":"amr"}{"workload":"bht"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		_ = s.Validate() // must not panic
		c1, err := s.Canonical()
		if err != nil {
			return
		}
		s2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", c1, err)
		}
		c2, err := s2.Canonical()
		if err != nil {
			t.Fatalf("canonical form %s does not re-canonicalize: %v", c1, err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical form not idempotent:\n%s\n%s", c1, c2)
		}
	})
}

// FuzzSweepSpec drives the untrusted SweepSpec surface: Validate must not
// panic, the canonical form must be a fixed point, and a sweep that expands
// yields exactly CellCount() <= MaxSweepCells cells, each addressed by its
// own RunSpec hash.
func FuzzSweepSpec(f *testing.F) {
	seeds := []string{
		`{"base":{"scale":"tiny"},"axes":[{"field":"workload","values":["amr","bht"]}]}`,
		`{"axes":[{"values":["amr","bht"],"field":"workload"}],"tenant":"default","priority":1,"spec_version":1,"base":{"scale":"tiny"}}`,
		`{"base":{"workload":"amr","scale":"tiny","scheduler":"smx-bind"},"axes":[{"field":"scheduler_params.max_levels","values":[2,4]},{"field":"scheduler_params.cluster_size","values":[1,2]}]}`,
		`{"base":{"workload":"amr","scale":"tiny"},"axes":[{"field":"max_cycles","values":[1e3,2000]}]}`,
		`{"base":{"scale":"tiny"},"axes":[{"field":"workload","values":["amr","nope"]}]}`,
		`{"base":{"workload":"amr"},"axes":[{"field":"dense_clock","values":[true,false]},{"field":"warp_policy","values":["gto","lrr"]}]}`,
		`{"base":{"workload":"amr"},"axes":[{"field":"max_cycles","values":[{}]}]}`,
		`{"base":{"workload":"amr"},"axes":[]}`,
	}
	for _, seed := range seeds {
		f.Add([]byte(seed))
	}
	if b, err := json.Marshal(testSweep()); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSweep(data)
		if err != nil {
			return
		}
		_ = s.Validate() // must not panic
		cells, err := s.Expand()
		if err != nil {
			return
		}
		if n := s.CellCount(); len(cells) != n || n > MaxSweepCells {
			t.Fatalf("expanded %d cells, CellCount %d, bound %d", len(cells), n, MaxSweepCells)
		}
		for _, c := range cells {
			h, err := c.Spec.Hash()
			if err != nil || h != c.Hash {
				t.Fatalf("cell %d: hash %s, Spec.Hash() = %s, %v", c.Index, c.Hash, h, err)
			}
		}
		c1, err := s.Canonical()
		if err != nil {
			t.Fatalf("expanding sweep has no canonical form: %v", err)
		}
		s2, err := ParseSweep(c1)
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", c1, err)
		}
		c2, err := s2.Canonical()
		if err != nil || !bytes.Equal(c1, c2) {
			t.Fatalf("canonical form not idempotent:\n%s\n%s (%v)", c1, c2, err)
		}
	})
}
