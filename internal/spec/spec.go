// Package spec defines RunSpec: a versioned, JSON-serializable description
// of one simulation run — workload, scale, launch model, scheduler (name plus
// parameters: priority levels, SMX clusters, a TB residency cap, the
// stage-3 backup), warp policy, the machine settings the sensitivity studies
// vary (SMX count, DTBL launch latency), and simulation options (sampling,
// attribution, auditing, clocking). It is the one description of a
// simulation: the command-line tools, every point of every experiment in
// internal/exp, and the lapermd simulation service all describe runs as
// RunSpecs and build them through one assembler, RunSpec.Options. A RunSpec
// holds everything needed to rebuild a run from bytes, and nothing that
// cannot be serialized; the base machine its overrides apply to is Table I
// unless a caller (the experiment harness on a reduced test machine) passes
// another.
//
// A RunSpec has three derived forms:
//
//   - Normalized() fills every defaulted field with its canonical value, so
//     two specs that describe the same run compare (and hash) equal whether
//     the defaults were spelled out or omitted.
//   - Canonical() is the normalized spec marshaled as JSON with a fixed field
//     order — the byte string the content hash is computed over.
//   - Hash() is the SHA-256 of Canonical(), the content address under which
//     the service coalesces identical submissions and caches results.
//
// Compatibility policy: SpecVersion is bumped only when the meaning of an
// existing field changes or a field is removed — additions that default to
// the previous behaviour keep the version. A spec with a newer version than
// this build understands is rejected by Validate (never silently
// misinterpreted), and the version is part of the canonical form, so a bump
// also changes every hash.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/smx"
)

// CurrentVersion is the RunSpec schema version this build writes and the
// newest it accepts.
const CurrentVersion = 1

// Default field values filled in by Normalized.
const (
	DefaultScale      = "small"
	DefaultModel      = "dtbl"
	DefaultScheduler  = "adaptive-bind"
	DefaultWarpPolicy = "gto"
)

// Stage-3 backup names for SchedulerParams.Backup (Figure 6).
const (
	// BackupSticky records one backup bank per SMX and drains it: the
	// Adaptive-Bind default, normalized to the empty string.
	BackupSticky = "sticky"
	// BackupFree re-scans for any non-empty bank every slot: the
	// ablation of the sticky-backup study.
	BackupFree = "free"
)

// Upper bounds on the sizes a spec may ask for. Each bounds what one
// untrusted submission can make the assembler allocate: the schedulers keep
// a queue per SMX and priority level, and the engine a pipeline and L1 per
// SMX.
const (
	// MaxSchedulerLevels bounds scheduler_params.max_levels.
	MaxSchedulerLevels = 64
	// MaxNumSMX bounds num_smx.
	MaxNumSMX = 256
	// MaxTBCap bounds scheduler_params.tb_cap.
	MaxTBCap = 64
)

// SchedulerParams tunes the named scheduler. Zero values mean the base
// machine's defaults and the registry's scheduler as is.
type SchedulerParams struct {
	// MaxLevels overrides the maximum priority level L (Section IV-A);
	// 0 keeps the configuration's MaxPriorityLevels.
	MaxLevels int `json:"max_levels,omitempty"`
	// ClusterSize overrides how many SMXs share an L1 for the binding
	// schedulers (Section IV-B); 0 keeps the configuration's
	// SMXsPerCluster.
	ClusterSize int `json:"cluster_size,omitempty"`
	// TBCap caps the thread blocks resident on one SMX, wrapping the
	// scheduler in core.Throttled (Section IV-F's contention-aware
	// throttling); 0 means no cap. Any positive cap is a distinct run
	// from no cap, even one at or above the machine's TBsPerSMX.
	TBCap int `json:"tb_cap,omitempty"`
	// Backup is Adaptive-Bind's stage-3 backup (Figure 6): "sticky"
	// (the default) or "free". Only adaptive-bind has a stage 3.
	Backup string `json:"backup,omitempty"`
}

// RunSpec describes one simulation run. The zero value of every optional
// field means "the default"; Normalized spells the defaults out. Field order
// here is the canonical JSON field order — do not reorder without bumping
// CurrentVersion.
type RunSpec struct {
	// SpecVersion is the schema version; 0 means CurrentVersion.
	SpecVersion int `json:"spec_version,omitempty"`
	// Workload is the Table II workload name ("bfs-citation"). Required.
	Workload string `json:"workload"`
	// Scale is the workload size: "tiny", "small" (default), "medium".
	Scale string `json:"scale,omitempty"`
	// Model is a registered dynamic-parallelism model name
	// (gpu.ModelNames); "dtbl" is the default.
	Model string `json:"model,omitempty"`
	// Scheduler is a registered TB scheduler name (core.SchedulerNames);
	// "adaptive-bind" is the default.
	Scheduler string `json:"scheduler,omitempty"`
	// SchedulerParams tunes the scheduler; nil means all defaults.
	SchedulerParams *SchedulerParams `json:"scheduler_params,omitempty"`
	// WarpPolicy is the warp scheduler: "gto" (default), "lrr" or
	// "two-level" (smx.Policy's names).
	WarpPolicy string `json:"warp_policy,omitempty"`
	// NumSMX overrides the machine's SMX count; 0 keeps the base
	// machine's.
	NumSMX int `json:"num_smx,omitempty"`
	// DTBLLaunchLatency overrides the DTBL child launch latency in cycles
	// (Section IV-D); 0 keeps the base machine's.
	DTBLLaunchLatency int `json:"dtbl_launch_latency,omitempty"`
	// MaxCycles bounds the run; 0 means the engine's safety net
	// (gpu.DefaultMaxCycles).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// SampleEvery records a timeline sample every N cycles; 0 disables
	// sampling.
	SampleEvery uint64 `json:"sample_every,omitempty"`
	// Attribution enables reuse-tagged cache accounting
	// (Result.L1Reuse/L2Reuse).
	Attribution bool `json:"attribution,omitempty"`
	// Audit enables the invariant auditor.
	Audit bool `json:"audit,omitempty"`
	// DenseClock steps one cycle at a time instead of event-horizon
	// fast-forwarding (identical results, slower).
	DenseClock bool `json:"dense_clock,omitempty"`
}

// Normalized returns a copy with every defaulted field filled in: the
// canonical form specs are compared, marshaled, and hashed in. The fields
// added after version 1 shipped normalize their defaults away instead, so
// a spec that omits them keeps its canonical form: a "sticky" backup
// becomes "", and a nil or all-zero SchedulerParams normalizes to nil.
func (s RunSpec) Normalized() RunSpec {
	if s.SpecVersion == 0 {
		s.SpecVersion = CurrentVersion
	}
	if s.Scale == "" {
		s.Scale = DefaultScale
	}
	if s.Model == "" {
		s.Model = DefaultModel
	}
	if s.Scheduler == "" {
		s.Scheduler = DefaultScheduler
	}
	if s.WarpPolicy == "" {
		s.WarpPolicy = DefaultWarpPolicy
	}
	if s.SchedulerParams != nil {
		p := *s.SchedulerParams // never alias the caller's struct
		if p.Backup == BackupSticky {
			p.Backup = ""
		}
		if (p == SchedulerParams{}) {
			s.SchedulerParams = nil
		} else {
			s.SchedulerParams = &p
		}
	}
	return s
}

// machine returns a private copy of base (Table I when nil) with the
// normalized spec's overrides applied.
func (n RunSpec) machine(base *config.GPU) config.GPU {
	cfg := config.KeplerK20c()
	if base != nil {
		cfg = base.Clone()
	}
	if n.NumSMX > 0 {
		cfg.NumSMX = n.NumSMX
	}
	if n.DTBLLaunchLatency > 0 {
		cfg.DTBLLaunchLatency = n.DTBLLaunchLatency
	}
	if p := n.SchedulerParams; p != nil {
		if p.MaxLevels > 0 {
			cfg.MaxPriorityLevels = p.MaxLevels
		}
		if p.ClusterSize > 0 {
			cfg.SMXsPerCluster = p.ClusterSize
		}
	}
	return cfg
}

// Validate checks the normalized spec: a supported version, a known
// workload (an unknown one yields a *kernels.UnknownWorkloadError listing
// the valid names), recognized scale / model / scheduler / warp-policy /
// backup names, sizes within their named bounds, and a valid machine: the
// overrides applied to Table I must pass config.Validate, so a cluster size
// that does not divide the SMX count is rejected here rather than failing
// the run. It does not build anything.
func (s RunSpec) Validate() error {
	n := s.Normalized()
	if n.SpecVersion < 1 || n.SpecVersion > CurrentVersion {
		return fmt.Errorf("spec: unsupported spec_version %d (this build supports 1..%d)",
			n.SpecVersion, CurrentVersion)
	}
	if n.Workload == "" {
		return fmt.Errorf("spec: workload is required (valid: %v)", kernels.LookupNames())
	}
	if _, err := kernels.Lookup(n.Workload); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if _, err := ParseScale(n.Scale); err != nil {
		return err
	}
	if _, err := ParseModel(n.Model); err != nil {
		return err
	}
	if _, ok := core.SchedulerByName(n.Scheduler); !ok {
		return fmt.Errorf("spec: unknown scheduler %q (valid: %v)", n.Scheduler, SchedulerNames())
	}
	if _, err := ParseWarpPolicy(n.WarpPolicy); err != nil {
		return err
	}
	if n.NumSMX < 0 || n.NumSMX > MaxNumSMX {
		return fmt.Errorf("spec: num_smx %d out of range 0..%d (MaxNumSMX)", n.NumSMX, MaxNumSMX)
	}
	if n.DTBLLaunchLatency < 0 {
		return fmt.Errorf("spec: dtbl_launch_latency %d is negative", n.DTBLLaunchLatency)
	}
	if p := n.SchedulerParams; p != nil {
		if p.MaxLevels < 0 || p.MaxLevels > MaxSchedulerLevels {
			return fmt.Errorf("spec: scheduler_params.max_levels %d out of range 0..%d (MaxSchedulerLevels)",
				p.MaxLevels, MaxSchedulerLevels)
		}
		if p.ClusterSize < 0 {
			return fmt.Errorf("spec: scheduler_params.cluster_size %d is negative", p.ClusterSize)
		}
		if p.TBCap < 0 || p.TBCap > MaxTBCap {
			return fmt.Errorf("spec: scheduler_params.tb_cap %d out of range 0..%d (MaxTBCap)", p.TBCap, MaxTBCap)
		}
		switch p.Backup {
		case "":
		case BackupFree:
			if n.Scheduler != "adaptive-bind" {
				return fmt.Errorf("spec: scheduler_params.backup %q needs scheduler adaptive-bind, the only one with a stage-3 backup (got %q)",
					p.Backup, n.Scheduler)
			}
		default:
			return fmt.Errorf("spec: unknown scheduler_params.backup %q (valid: %s, %s)", p.Backup, BackupSticky, BackupFree)
		}
	}
	cfg := n.machine(nil)
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("spec: invalid machine (Table I with this spec's overrides): %w", err)
	}
	return nil
}

// Canonical returns the canonical byte form: the normalized spec marshaled
// as JSON. encoding/json emits struct fields in declaration order, so equal
// normalized specs produce equal bytes regardless of how the input JSON was
// ordered or which defaults it spelled out.
func (s RunSpec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.Normalized())
}

// Hash returns the spec's content address: the lowercase hex SHA-256 of
// Canonical(). Identical runs hash identically; any semantic difference
// (including a SpecVersion bump) changes the hash.
func (s RunSpec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// Parse decodes a RunSpec from JSON, rejecting unknown fields — a typo'd
// option must fail loudly, not silently change which run the hash names —
// and trailing garbage. The result is not yet validated or normalized.
func Parse(data []byte) (RunSpec, error) {
	var s RunSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("spec: invalid RunSpec JSON: %w", err)
	}
	if dec.More() {
		return RunSpec{}, fmt.Errorf("spec: trailing data after RunSpec JSON")
	}
	return s, nil
}

// Options is the one assembler of a run: it resolves the spec into the GPU
// configuration (a private copy of base, Table I when base is nil, with the
// spec's overrides applied), the scheduler (the registry's, or the free
// stage-3 backup, wrapped in core.Throttled under a TB cap) inside
// ready-to-use gpu.Options, and the workload. It builds no program.
// Callers may edit the returned Options (trace hooks, cycle caps) before
// building the simulator.
func (s RunSpec) Options(base *config.GPU) (gpu.Options, kernels.Workload, error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return gpu.Options{}, kernels.Workload{}, err
	}
	w, err := kernels.Lookup(n.Workload)
	if err != nil {
		return gpu.Options{}, kernels.Workload{}, err
	}
	cfg := n.machine(base)
	if err := cfg.Validate(); err != nil {
		return gpu.Options{}, kernels.Workload{}, fmt.Errorf("spec: %w", err)
	}
	var p SchedulerParams
	if n.SchedulerParams != nil {
		p = *n.SchedulerParams
	}
	var sched gpu.TBScheduler
	if p.Backup == BackupFree {
		sched = core.NewBindClusters(cfg.NumSMX, cfg.SMXsPerCluster, cfg.MaxPriorityLevels, core.BackupFree)
	} else if sched, err = core.NewSchedulerFor(n.Scheduler, &cfg); err != nil {
		return gpu.Options{}, kernels.Workload{}, err
	}
	if p.TBCap > 0 {
		sched = core.NewThrottled(sched, p.TBCap)
	}
	model, err := ParseModel(n.Model)
	if err != nil {
		return gpu.Options{}, kernels.Workload{}, err
	}
	policy, err := ParseWarpPolicy(n.WarpPolicy)
	if err != nil {
		return gpu.Options{}, kernels.Workload{}, err
	}
	return gpu.Options{
		Config:      &cfg,
		Scheduler:   sched,
		Model:       model,
		WarpPolicy:  policy,
		MaxCycles:   n.MaxCycles,
		SampleEvery: n.SampleEvery,
		Attribution: n.Attribution,
		Audit:       n.Audit,
		DenseClock:  n.DenseClock,
	}, w, nil
}

// Build constructs the simulator on Table I and launches the workload's
// host kernel, ready for Run/RunContext. Equal specs build byte-identical
// runs.
func (s RunSpec) Build() (*gpu.Simulator, kernels.Workload, error) {
	return s.BuildOn(nil, nil)
}

// BuildWith is Build with an Options hook: customize, when non-nil, edits
// the assembled gpu.Options (trace hooks, sampling overrides, cycle caps)
// before the simulator is constructed.
func (s RunSpec) BuildWith(customize func(*gpu.Options)) (*gpu.Simulator, kernels.Workload, error) {
	return s.BuildOn(nil, customize)
}

// BuildOn is BuildWith on a base machine other than Table I (nil means
// Table I): the spec's overrides apply to a private copy of base.
func (s RunSpec) BuildOn(base *config.GPU, customize func(*gpu.Options)) (*gpu.Simulator, kernels.Workload, error) {
	gopts, w, err := s.Options(base)
	if err != nil {
		return nil, kernels.Workload{}, err
	}
	if customize != nil {
		customize(&gopts)
	}
	sim, err := gpu.New(gopts)
	if err != nil {
		return nil, w, fmt.Errorf("spec: %s: %w", w.Name, err)
	}
	sc, err := ParseScale(s.Normalized().Scale)
	if err != nil {
		return nil, w, err
	}
	if err := sim.LaunchHost(w.Build(sc)); err != nil {
		return nil, w, fmt.Errorf("spec: %s: %w", w.Name, err)
	}
	return sim, w, nil
}

// SchedulerNames lists the valid TB scheduler names in registry order.
func SchedulerNames() []string { return core.SchedulerNames() }

// ParseScale maps a scale name to its kernels.Scale.
func ParseScale(name string) (kernels.Scale, error) {
	switch name {
	case "tiny":
		return kernels.ScaleTiny, nil
	case "small":
		return kernels.ScaleSmall, nil
	case "medium":
		return kernels.ScaleMedium, nil
	}
	return 0, fmt.Errorf("spec: unknown scale %q (valid: tiny, small, medium)", name)
}

// ParseModel resolves a launch-model name against the gpu model registry.
func ParseModel(name string) (gpu.Model, error) {
	m, ok := gpu.ModelByName(name)
	if !ok {
		return 0, fmt.Errorf("spec: unknown model %q (valid: %v)", name, gpu.ModelNames())
	}
	return m, nil
}

// WarpPolicyNames lists the valid warp_policy values: smx.Policy's names,
// in declaration order.
func WarpPolicyNames() []string {
	var names []string
	for _, p := range smx.Policies() {
		names = append(names, p.String())
	}
	return names
}

// ParseWarpPolicy maps a warp-policy name to its smx.Policy.
func ParseWarpPolicy(name string) (smx.Policy, error) {
	for _, p := range smx.Policies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown warp_policy %q (valid: %s)", name, strings.Join(WarpPolicyNames(), ", "))
}
