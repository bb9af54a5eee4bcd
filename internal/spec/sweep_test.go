package spec

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func rawValues(vals ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(v)
	}
	return out
}

func testSweep() SweepSpec {
	return SweepSpec{
		Base: RunSpec{Scale: "tiny", MaxCycles: 50_000},
		Axes: []SweepAxis{
			{Field: "workload", Values: rawValues(`"amr"`, `"bht"`)},
			{Field: "scheduler", Values: rawValues(`"rr"`, `"smx-bind"`, `"adaptive-bind"`)},
		},
	}
}

func TestSweepExpandDeterministic(t *testing.T) {
	s := testSweep()
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	if got := s.CellCount(); got != 6 {
		t.Fatalf("CellCount = %d, want 6", got)
	}
	// Row-major: first axis slowest.
	wantValues := [][2]string{
		{"amr", "rr"}, {"amr", "smx-bind"}, {"amr", "adaptive-bind"},
		{"bht", "rr"}, {"bht", "smx-bind"}, {"bht", "adaptive-bind"},
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.Values[0] != wantValues[i][0] || c.Values[1] != wantValues[i][1] {
			t.Errorf("cell %d values %v, want %v", i, c.Values, wantValues[i])
		}
		if c.Spec.Workload != wantValues[i][0] || c.Spec.Scheduler != wantValues[i][1] {
			t.Errorf("cell %d spec = %+v", i, c.Spec)
		}
		if c.Spec.Scale != "tiny" || c.Spec.MaxCycles != 50_000 {
			t.Errorf("cell %d lost base fields: %+v", i, c.Spec)
		}
		if err := c.Spec.Validate(); err != nil {
			t.Errorf("cell %d invalid: %v", i, err)
		}
	}
	// Expanding again yields identical hashes in identical order.
	again, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Hash != again[i].Hash {
			t.Fatalf("expansion not deterministic at cell %d", i)
		}
	}
}

// TestSweepCellHashMatchesSingleton: a sweep cell's hash is exactly the hash
// a direct /v1/runs submission of the same run would get — the property the
// whole dedupe design rests on.
func TestSweepCellHashMatchesSingleton(t *testing.T) {
	cells, err := testSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	direct := RunSpec{Workload: "bht", Scale: "tiny", Scheduler: "smx-bind", MaxCycles: 50_000}
	want, err := direct.Hash()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cells {
		if c.Hash == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sweep cell hashes to the equivalent singleton spec %s", want)
	}
}

func TestSweepHashInsensitiveToFormatting(t *testing.T) {
	a, err := ParseSweep([]byte(`{"base":{"scale":"tiny"},"axes":[{"field":"workload","values":["amr","bht"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	// Same sweep: reordered keys, whitespace, defaults spelled out,
	// equivalent number formatting in a numeric axis.
	b, err := ParseSweep([]byte(`{
		"axes": [ {"values": [ "amr" , "bht" ], "field": "workload"} ],
		"tenant": "default",
		"priority": 1,
		"spec_version": 1,
		"base": {"scale": "tiny"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("equivalent sweeps hash differently: %s vs %s", ha, hb)
	}
	// A different tenant is a different sweep identity (cells still dedupe).
	c := a
	c.Tenant = "acme"
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("tenant change did not change the sweep hash")
	}
}

func TestSweepParseRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSweep([]byte(`{"base":{"workload":"amr"},"axis":[]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSweep([]byte(`{"base":{"workload":"amr"},"axes":[]}{}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestSweepValidateAxisErrors(t *testing.T) {
	base := RunSpec{Workload: "amr", Scale: "tiny"}
	cases := []struct {
		name   string
		axes   []SweepAxis
		reason string
	}{
		{"unknown field", []SweepAxis{{Field: "wrokload", Values: rawValues(`"amr"`)}}, "unknown field"},
		{"duplicate field", []SweepAxis{
			{Field: "scale", Values: rawValues(`"tiny"`)},
			{Field: "scale", Values: rawValues(`"small"`)},
		}, "more than one axis"},
		{"empty values", []SweepAxis{{Field: "scale", Values: nil}}, "no values"},
		{"duplicate value", []SweepAxis{{Field: "scale", Values: rawValues(`"tiny"`, `"tiny"`)}}, "duplicate value"},
		{"non-scalar value", []SweepAxis{{Field: "scale", Values: rawValues(`["tiny"]`)}}, "not a JSON scalar"},
		{"invalid json value", []SweepAxis{{Field: "scale", Values: rawValues(`tinee`)}}, "invalid JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := SweepSpec{Base: base, Axes: tc.axes}
			err := s.Validate()
			if err == nil {
				t.Fatal("validated")
			}
			var ax *AxisError
			if !errors.As(err, &ax) {
				t.Fatalf("error %v is not an *AxisError", err)
			}
			if !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("error %q does not mention %q", err, tc.reason)
			}
		})
	}
	// Unknown-field errors carry the valid field list.
	err := SweepSpec{Base: base, Axes: []SweepAxis{{Field: "nope", Values: rawValues(`1`)}}}.Validate()
	var ax *AxisError
	if !errors.As(err, &ax) || len(ax.Valid) == 0 {
		t.Fatalf("unknown-field error lacks valid field list: %v", err)
	}
}

func TestSweepValidateStructural(t *testing.T) {
	if err := (SweepSpec{Base: RunSpec{Workload: "amr"}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "no axes") {
		t.Fatalf("axis-less sweep: %v", err)
	}
	s := testSweep()
	s.Priority = MaxPriority + 1
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "priority") {
		t.Fatalf("over-priority sweep: %v", err)
	}
	s = testSweep()
	s.SpecVersion = SweepVersion + 1
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "spec_version") {
		t.Fatalf("future-version sweep: %v", err)
	}
}

func TestSweepCellLimit(t *testing.T) {
	// 3 axes of 16 distinct max_cycles-style values = 4096 cells: allowed.
	// One more value anywhere: rejected before any expansion work.
	vals := func(n, stride int) []json.RawMessage {
		out := make([]json.RawMessage, n)
		for i := range out {
			out[i] = json.RawMessage(json.Number(itoa(1000 + i*stride)))
		}
		return out
	}
	s := SweepSpec{
		Base: RunSpec{Workload: "amr", Scale: "tiny"},
		Axes: []SweepAxis{
			{Field: "max_cycles", Values: vals(64, 1)},
			{Field: "sample_every", Values: vals(65, 7)},
		},
	}
	if err := s.validateAxes(); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("oversized sweep: %v", err)
	}
	s.Axes[1].Values = s.Axes[1].Values[:64]
	if err := s.validateAxes(); err != nil {
		t.Fatalf("4096-cell sweep rejected: %v", err)
	}
	// The bound is checked before any value is read: an oversized axis
	// whose last value is not a scalar fails on the cell count, not with a
	// per-value AxisError found after canonicalizing the rest.
	big := vals(5000, 1)
	big[len(big)-1] = json.RawMessage(`{}`)
	s.Axes = []SweepAxis{{Field: "max_cycles", Values: big}}
	var axErr *AxisError
	if err := s.Validate(); errors.As(err, &axErr) || err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("5000-value sweep: %v, want the cell-limit error", err)
	}
}

func itoa(n int) string {
	return string(json.RawMessage([]byte(jsonInt(n))))
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestSweepCellErrors(t *testing.T) {
	// An axis value that expands to an invalid run fails with a CellError
	// naming the combination.
	s := SweepSpec{
		Base: RunSpec{Scale: "tiny"},
		Axes: []SweepAxis{{Field: "workload", Values: rawValues(`"amr"`, `"no-such"`)}},
	}
	_, err := s.Expand()
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CellError", err)
	}
	if ce.Index != 1 || !strings.Contains(ce.Values, "workload=no-such") {
		t.Fatalf("cell error points at the wrong cell: %+v", ce)
	}

	// Two combinations normalizing to the same run are rejected: "small" is
	// the default scale, so "" and "small" collide.
	dup := SweepSpec{
		Base: RunSpec{Workload: "amr"},
		Axes: []SweepAxis{{Field: "sample_every", Values: rawValues(`0`, `256`)}},
	}
	if _, err := dup.Expand(); err != nil {
		t.Fatalf("distinct cells rejected: %v", err)
	}
	// "" and "small" are distinct axis values but normalize to the same
	// run (empty scale means the default), so the expanded cells collide.
	collide := SweepSpec{
		Base: RunSpec{Workload: "amr"},
		Axes: []SweepAxis{{Field: "scale", Values: rawValues(`""`, `"small"`)}},
	}
	if _, err := collide.Expand(); err == nil {
		t.Fatal("colliding cells accepted")
	} else if !errors.As(err, &ce) {
		t.Fatalf("collision error %v is not a *CellError", err)
	}
}

// TestSweepDottedAxes: the scheduler_params fields are addressable by
// dotted path and expand into the nested struct.
func TestSweepDottedAxes(t *testing.T) {
	s := SweepSpec{
		Base: RunSpec{Workload: "amr", Scale: "tiny", Scheduler: "smx-bind"},
		Axes: []SweepAxis{
			{Field: "scheduler_params.max_levels", Values: rawValues(`2`, `4`)},
			{Field: "scheduler_params.cluster_size", Values: rawValues(`1`, `2`)},
		},
	}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	last := cells[3].Spec
	if last.SchedulerParams == nil || last.SchedulerParams.MaxLevels != 4 || last.SchedulerParams.ClusterSize != 2 {
		t.Fatalf("dotted axes did not reach scheduler_params: %+v", last.SchedulerParams)
	}
}

func TestSweepNormalizedDefaults(t *testing.T) {
	n := testSweep().Normalized()
	if n.SpecVersion != SweepVersion || n.Tenant != DefaultTenant || n.Priority != DefaultPriority {
		t.Fatalf("defaults not filled: %+v", n)
	}
	// Normalization canonicalizes value encoding: 1e3 and 1000 are the
	// same canonical value, so the sweeps hash equal.
	a := SweepSpec{
		Base: RunSpec{Workload: "amr", Scale: "tiny"},
		Axes: []SweepAxis{{Field: "max_cycles", Values: rawValues(`1e3`, `2000`)}},
	}
	b := SweepSpec{
		Base: RunSpec{Workload: "amr", Scale: "tiny"},
		Axes: []SweepAxis{{Field: "max_cycles", Values: rawValues(`1000`, `2e3`)}},
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("equivalent numeric values hash differently: %s vs %s", ha, hb)
	}
}
