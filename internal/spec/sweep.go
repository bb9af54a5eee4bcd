// SweepSpec describes a parameter sweep: one base RunSpec plus a set of
// axes, each naming a RunSpec field and listing the values it takes. The
// sweep expands into the cross product of the axis values — one
// content-addressed RunSpec ("cell") per combination — which is how the
// paper's evaluation matrix (8 benchmarks × launch models × schedulers) and
// every sensitivity study become a single service request instead of an
// in-process loop.
//
// Like RunSpec, a SweepSpec has Normalized / Canonical / Hash forms: the
// hash is the sweep ID the service coalesces identical submissions under.
// Cells are hashed individually with the ordinary RunSpec content address,
// which is what makes cross-sweep dedupe trivial: two overlapping sweeps
// name their shared cells by the same string.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SweepVersion is the SweepSpec schema version this build writes and the
// newest it accepts. It is independent of the RunSpec CurrentVersion: cells
// carry their own spec_version.
const SweepVersion = 1

// Sweep defaults filled in by Normalized.
const (
	// DefaultTenant is the fair-share tenant a sweep without one belongs to.
	DefaultTenant = "default"
	// DefaultPriority is the fair-share weight of a sweep that does not ask
	// for one.
	DefaultPriority = 1
	// MaxPriority bounds Priority: a single sweep can claim at most this
	// many scheduling slots per fair-share round within its tenant.
	MaxPriority = 16
	// MaxSweepCells bounds the expansion: the cross product of all axis
	// values may not exceed it. The service may configure a lower bound.
	MaxSweepCells = 4096
)

// AxisFields lists the RunSpec fields a sweep axis may range over, in
// canonical (RunSpec declaration) order. Scalar fields only; the scheduler
// parameters are addressed by dotted path.
func AxisFields() []string {
	return []string{
		"workload", "scale", "model", "scheduler",
		"scheduler_params.max_levels", "scheduler_params.cluster_size",
		"scheduler_params.tb_cap", "scheduler_params.backup",
		"warp_policy", "num_smx", "dtbl_launch_latency",
		"max_cycles", "sample_every",
		"attribution", "audit", "dense_clock",
	}
}

// AxisError reports an invalid sweep axis: which axis (by field name, or
// position when the name itself is the problem) and why, carrying the valid
// field names so callers can list them without re-deriving the set.
type AxisError struct {
	// Field is the axis' field name as submitted (possibly unknown).
	Field string
	// Index is the axis' position in SweepSpec.Axes.
	Index int
	// Reason says what is wrong.
	Reason string
	// Valid lists the allowed axis fields when the field name was the
	// problem; nil otherwise.
	Valid []string
}

func (e *AxisError) Error() string {
	msg := fmt.Sprintf("spec: sweep axis %d (%q): %s", e.Index, e.Field, e.Reason)
	if len(e.Valid) > 0 {
		msg += fmt.Sprintf(" (valid fields: %s)", strings.Join(e.Valid, ", "))
	}
	return msg
}

// CellError reports a sweep cell whose expanded RunSpec failed validation:
// the cell index in expansion order, the axis assignment that produced it,
// and the underlying spec error.
type CellError struct {
	// Index is the cell's position in expansion order.
	Index int
	// Values renders the cell's axis assignment ("workload=amr model=cdp").
	Values string
	// Err is the underlying RunSpec validation error.
	Err error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("spec: sweep cell %d (%s): %v", e.Index, e.Values, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// SweepAxis is one swept dimension: a RunSpec field and the values it
// takes. Values are JSON scalars (string, number, or bool) matching the
// field's type.
type SweepAxis struct {
	// Field names the RunSpec field (see AxisFields), e.g. "scheduler" or
	// "scheduler_params.max_levels".
	Field string `json:"field"`
	// Values lists the values the field takes, in sweep order. At least
	// one; duplicates are rejected.
	Values []json.RawMessage `json:"values"`
}

// SweepSpec describes one parameter sweep. Field order is the canonical
// JSON field order — do not reorder without bumping SweepVersion.
type SweepSpec struct {
	// SpecVersion is the sweep schema version; 0 means SweepVersion.
	SpecVersion int `json:"spec_version,omitempty"`
	// Tenant names the fair-share tenant the sweep is scheduled under;
	// empty means "default". The service round-robins cells across
	// tenants, so one tenant's giant sweep cannot starve another's.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the sweep's weighted-round-robin weight among its
	// tenant's active sweeps: a priority-3 sweep gets three cells
	// scheduled for every one of a priority-1 sweep. 0 means 1; bounded
	// by MaxPriority.
	Priority int `json:"priority,omitempty"`
	// Base is the RunSpec every cell starts from. Fields named by axes
	// are overridden per cell; Base on its own need not be a valid run
	// (its workload may come from an axis).
	Base RunSpec `json:"base"`
	// Axes are the swept dimensions; the sweep is their cross product,
	// expanded with the first axis slowest (row-major). At least one.
	Axes []SweepAxis `json:"axes"`
}

// SweepCell is one expanded cell of a sweep: a fully normalized, validated
// RunSpec plus its content address and the axis assignment that produced
// it.
type SweepCell struct {
	// Index is the cell's position in expansion order.
	Index int
	// Spec is the cell's normalized RunSpec.
	Spec RunSpec
	// Hash is Spec's content address — run ID, coalescing key, and cache
	// key, identical to what a singleton submission of Spec would get.
	Hash string
	// Values renders each axis' value for this cell, aligned with
	// SweepSpec.Axes.
	Values []string
}

// ParseSweep decodes a SweepSpec from JSON, rejecting unknown fields and
// trailing garbage (same discipline as Parse: a typo must fail loudly, not
// silently change which sweep the hash names). The result is not yet
// validated or normalized.
func ParseSweep(data []byte) (SweepSpec, error) {
	var s SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("spec: invalid SweepSpec JSON: %w", err)
	}
	if dec.More() {
		return SweepSpec{}, fmt.Errorf("spec: trailing data after SweepSpec JSON")
	}
	return s, nil
}

// canonValue re-encodes one axis value compactly: whitespace and number
// formatting in the submitted JSON (1e3 vs 1000) must not change the
// canonical form. Only JSON scalars survive.
func canonValue(raw json.RawMessage) (json.RawMessage, error) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("invalid JSON value %q: %w", string(raw), err)
	}
	switch n := v.(type) {
	case string, bool:
	case json.Number:
		// Exponent and fraction forms collapse to the plain integer or
		// float they denote, so 1e3 and 1000 canonicalize identically —
		// integers via uint64/int64 to keep full 64-bit precision.
		if u, err := strconv.ParseUint(n.String(), 10, 64); err == nil {
			v = u
		} else if i, err := n.Int64(); err == nil {
			v = i
		} else if f, err := n.Float64(); err == nil {
			if f >= 0 && f <= math.MaxUint64 && f == math.Trunc(f) {
				v = uint64(f)
			} else if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
				v = int64(f)
			} else {
				v = f
			}
		} else {
			return nil, fmt.Errorf("invalid JSON number %q", n.String())
		}
	default:
		return nil, fmt.Errorf("value %s is not a JSON scalar (string, number, or bool)", string(raw))
	}
	out, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Normalized returns a copy with every defaulted field filled in and every
// axis value re-encoded canonically: the form sweeps are compared,
// marshaled, and hashed in. Axis values that are not valid JSON scalars are
// left as submitted — Validate rejects them with a structured error.
func (s SweepSpec) Normalized() SweepSpec {
	if s.SpecVersion == 0 {
		s.SpecVersion = SweepVersion
	}
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if s.Priority == 0 {
		s.Priority = DefaultPriority
	}
	s.Base = s.Base.Normalized()
	axes := make([]SweepAxis, len(s.Axes))
	for i, ax := range s.Axes {
		values := make([]json.RawMessage, len(ax.Values))
		for j, raw := range ax.Values {
			if canon, err := canonValue(raw); err == nil {
				values[j] = canon
			} else {
				values[j] = append(json.RawMessage(nil), raw...)
			}
		}
		axes[i] = SweepAxis{Field: ax.Field, Values: values}
	}
	s.Axes = axes
	return s
}

// validAxisField reports whether field may be swept.
func validAxisField(field string) bool {
	for _, f := range AxisFields() {
		if f == field {
			return true
		}
	}
	return false
}

// validateAxes checks the sweep's structure without expanding it: a
// bounded cell count, a supported version, known axis fields, no field
// swept twice, scalar values, no duplicate values, and a sane priority. The
// cell count is checked first, before any per-value work, so an oversized
// axis is rejected in time independent of its length.
func (s SweepSpec) validateAxes() error {
	if s.CellCount() > MaxSweepCells {
		return fmt.Errorf("spec: sweep expands to more than %d cells", MaxSweepCells)
	}
	n := s.Normalized()
	if n.SpecVersion < 1 || n.SpecVersion > SweepVersion {
		return fmt.Errorf("spec: unsupported sweep spec_version %d (this build supports 1..%d)",
			n.SpecVersion, SweepVersion)
	}
	if n.Priority < 0 || n.Priority > MaxPriority {
		return fmt.Errorf("spec: sweep priority %d out of range 1..%d", n.Priority, MaxPriority)
	}
	if len(n.Axes) == 0 {
		return fmt.Errorf("spec: sweep has no axes (valid fields: %s)", strings.Join(AxisFields(), ", "))
	}
	seen := make(map[string]bool, len(n.Axes))
	for i, ax := range n.Axes {
		if !validAxisField(ax.Field) {
			return &AxisError{Field: ax.Field, Index: i, Reason: "unknown field", Valid: AxisFields()}
		}
		if seen[ax.Field] {
			return &AxisError{Field: ax.Field, Index: i, Reason: "field swept by more than one axis"}
		}
		seen[ax.Field] = true
		if len(ax.Values) == 0 {
			return &AxisError{Field: ax.Field, Index: i, Reason: "axis has no values"}
		}
		dup := make(map[string]bool, len(ax.Values))
		for _, raw := range ax.Values {
			if _, err := canonValue(raw); err != nil {
				return &AxisError{Field: ax.Field, Index: i, Reason: err.Error()}
			}
			if dup[string(raw)] {
				return &AxisError{Field: ax.Field, Index: i,
					Reason: fmt.Sprintf("duplicate value %s", string(raw))}
			}
			dup[string(raw)] = true
		}
	}
	return nil
}

// Validate checks the normalized sweep end to end: the axis structure, and
// that every expanded cell is a valid RunSpec. A sweep that validates will
// expand without error.
func (s SweepSpec) Validate() error {
	_, err := s.Expand()
	return err
}

// CellCount returns how many cells the sweep expands to (the product of
// the axis value counts), without expanding or reading any value. A count
// above MaxSweepCells is reported as MaxSweepCells+1, so it cannot overflow.
func (s SweepSpec) CellCount() int {
	n := 1
	for _, ax := range s.Axes {
		if len(ax.Values) > 0 && n > MaxSweepCells/len(ax.Values) {
			return MaxSweepCells + 1
		}
		n *= len(ax.Values)
	}
	return n
}

// Canonical returns the canonical byte form: the normalized sweep marshaled
// as JSON, after full validation.
func (s SweepSpec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.Normalized())
}

// Hash returns the sweep's content address: the lowercase hex SHA-256 of
// Canonical(). Identical sweeps hash identically, so the service coalesces
// a resubmitted sweep onto the in-flight one the same way it coalesces
// runs. Tenant and priority are part of the canonical form — the same axes
// under a different tenant are a different sweep (their cells still dedupe,
// because cells hash on RunSpec content alone).
func (s SweepSpec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// renderValue formats one canonical axis value for human-facing cell
// tables and CSV columns: strings lose their quotes, numbers and bools
// print as-is.
func renderValue(canon json.RawMessage) string {
	var v any
	dec := json.NewDecoder(bytes.NewReader(canon))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return string(canon)
	}
	if str, ok := v.(string); ok {
		return str
	}
	return string(canon)
}

// setField assigns one axis value into the cell's field map, following one
// level of dotted path ("scheduler_params.max_levels").
func setField(m map[string]any, field string, value json.RawMessage) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(value))
	dec.UseNumber()
	dec.Decode(&v)
	if parent, child, ok := strings.Cut(field, "."); ok {
		sub, _ := m[parent].(map[string]any)
		if sub == nil {
			sub = make(map[string]any)
		}
		sub[child] = v
		m[parent] = sub
		return
	}
	m[field] = v
}

// Expand validates the sweep and returns its cells in deterministic
// expansion order: the cross product of the axis values with the first axis
// slowest (row-major). Every cell is normalized and fully validated; a cell
// that does not name a valid run fails the whole expansion with a
// *CellError saying which combination is at fault.
func (s SweepSpec) Expand() ([]SweepCell, error) {
	if err := s.validateAxes(); err != nil {
		return nil, err
	}
	n := s.Normalized()
	baseJSON, err := json.Marshal(n.Base)
	if err != nil {
		return nil, fmt.Errorf("spec: marshal sweep base: %w", err)
	}
	total := n.CellCount()
	cells := make([]SweepCell, 0, total)
	idx := make([]int, len(n.Axes))
	seen := make(map[string]int, total)
	for i := 0; i < total; i++ {
		// Rebuild the field map from the base each time: axis writes must
		// not leak between cells (scheduler_params is a nested map).
		var fields map[string]any
		if err := json.Unmarshal(baseJSON, &fields); err != nil {
			return nil, fmt.Errorf("spec: decode sweep base: %w", err)
		}
		values := make([]string, len(n.Axes))
		var assign []string
		for a, ax := range n.Axes {
			raw := ax.Values[idx[a]]
			setField(fields, ax.Field, raw)
			values[a] = renderValue(raw)
			assign = append(assign, ax.Field+"="+values[a])
		}
		cellJSON, err := json.Marshal(fields)
		if err != nil {
			return nil, fmt.Errorf("spec: marshal sweep cell %d: %w", i, err)
		}
		cell, err := Parse(cellJSON)
		if err != nil {
			return nil, &CellError{Index: i, Values: strings.Join(assign, " "), Err: err}
		}
		cell = cell.Normalized()
		if err := cell.Validate(); err != nil {
			return nil, &CellError{Index: i, Values: strings.Join(assign, " "), Err: err}
		}
		hash, err := cell.Hash()
		if err != nil {
			return nil, &CellError{Index: i, Values: strings.Join(assign, " "), Err: err}
		}
		if prev, dup := seen[hash]; dup {
			return nil, &CellError{Index: i, Values: strings.Join(assign, " "),
				Err: fmt.Errorf("spec: duplicate cell (same normalized run as cell %d)", prev)}
		}
		seen[hash] = i
		cells = append(cells, SweepCell{Index: i, Spec: cell, Hash: hash, Values: values})
		// Advance the odometer, last axis fastest.
		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(n.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return cells, nil
}
