package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/smx"
)

// Golden canonical form and hash of the all-defaults bfs-citation spec.
// These are load-bearing constants: the service's cache keys and coalescing
// identity are these hashes, so an accidental change to field order,
// defaults, or the version breaks every deployed cache. Update them only
// with a deliberate SpecVersion bump.
const (
	goldenCanonical = `{"spec_version":1,"workload":"bfs-citation","scale":"small","model":"dtbl","scheduler":"adaptive-bind","warp_policy":"gto"}`
	goldenHash      = "3593bd798b63dfd0e06a99bcd7788377a66d66adc3e91169ed27e710a78b70ec"
)

// goldenNewFieldsCanonical is the canonical form of a spec that sets every
// field added after version 1 shipped: the SMX count, the DTBL launch
// latency, the two-level warp policy, the nested-4 workload, and the TB cap
// and free backup in scheduler_params. Their canonical order is as load-
// bearing as goldenCanonical's.
const goldenNewFieldsCanonical = `{"spec_version":1,"workload":"nested-4","scale":"tiny","model":"dtbl","scheduler":"adaptive-bind","scheduler_params":{"max_levels":8,"cluster_size":2,"tb_cap":8,"backup":"free"},"warp_policy":"two-level","num_smx":12,"dtbl_launch_latency":5000}`

// TestCanonicalNewFieldsGolden: a spec that spells out the new fields in
// any order canonicalizes to goldenNewFieldsCanonical.
func TestCanonicalNewFieldsGolden(t *testing.T) {
	s, err := Parse([]byte(`{"dtbl_launch_latency":5000,"num_smx":12,"warp_policy":"two-level",
		"scheduler_params":{"backup":"free","tb_cap":8,"cluster_size":2,"max_levels":8},
		"scale":"tiny","workload":"nested-4"}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(c) != goldenNewFieldsCanonical {
		t.Errorf("canonical form drifted:\n got %s\nwant %s", c, goldenNewFieldsCanonical)
	}
}

// TestNewFieldDefaultsKeepHash: spelling out the defaults of the fields
// added after version 1 — a sticky backup, zero SMX count, latency and cap —
// keeps the version-1 canonical form and hash.
func TestNewFieldDefaultsKeepHash(t *testing.T) {
	s := RunSpec{Workload: "bfs-citation", NumSMX: 0, DTBLLaunchLatency: 0,
		SchedulerParams: &SchedulerParams{Backup: BackupSticky, TBCap: 0}}
	if h, err := s.Hash(); err != nil || h != goldenHash {
		t.Errorf("hash = %s, %v; want the version-1 golden %s", h, err, goldenHash)
	}
}

func TestCanonicalAndHashGolden(t *testing.T) {
	s := RunSpec{Workload: "bfs-citation"}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(c) != goldenCanonical {
		t.Errorf("canonical form drifted:\n got %s\nwant %s", c, goldenCanonical)
	}
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != goldenHash {
		t.Errorf("hash drifted: got %s, want %s", h, goldenHash)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := RunSpec{
		Workload:        "join-gaussian",
		Scale:           "medium",
		Model:           "cdp",
		Scheduler:       "smx-bind",
		SchedulerParams: &SchedulerParams{MaxLevels: 3, ClusterSize: 2},
		WarpPolicy:      "lrr",
		MaxCycles:       1_000_000,
		SampleEvery:     512,
		Attribution:     true,
		Audit:           true,
		DenseClock:      true,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Normalized(), out.Normalized()) {
		t.Fatalf("round trip diverged:\n in  %+v\n out %+v", in.Normalized(), out.Normalized())
	}
}

// TestHashFieldOrderInsensitive: the hash is computed over the canonical
// form, so reordering the keys of the submitted JSON cannot change it.
func TestHashFieldOrderInsensitive(t *testing.T) {
	a, err := Parse([]byte(`{"workload":"amr","model":"cdp","scale":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(`{"scale":"tiny","model":"cdp","workload":"amr"}`))
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
		t.Errorf("field order changed the hash: %s vs %s", ha, hb)
	}
}

// TestHashDefaultInsensitive: spelling a default out hashes identically to
// omitting it.
func TestHashDefaultInsensitive(t *testing.T) {
	implicit := RunSpec{Workload: "bht"}
	explicit := RunSpec{
		SpecVersion: 1, Workload: "bht", Scale: "small", Model: "dtbl",
		Scheduler: "adaptive-bind", WarpPolicy: "gto",
		SchedulerParams: &SchedulerParams{}, // all-zero params normalize away
	}
	hi, err := implicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	he, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hi != he {
		t.Errorf("explicit defaults changed the hash: %s vs %s", hi, he)
	}
}

// TestHashSensitivity: every semantic difference must change the hash.
func TestHashSensitivity(t *testing.T) {
	base := RunSpec{Workload: "bfs-citation"}
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]RunSpec{
		"workload":     {Workload: "bfs-graph5"},
		"scale":        {Workload: "bfs-citation", Scale: "tiny"},
		"model":        {Workload: "bfs-citation", Model: "cdp"},
		"scheduler":    {Workload: "bfs-citation", Scheduler: "rr"},
		"sched-params": {Workload: "bfs-citation", SchedulerParams: &SchedulerParams{MaxLevels: 2}},
		"tb-cap":       {Workload: "bfs-citation", SchedulerParams: &SchedulerParams{TBCap: 16}},
		"free-backup":  {Workload: "bfs-citation", SchedulerParams: &SchedulerParams{Backup: BackupFree}},
		"num-smx":      {Workload: "bfs-citation", NumSMX: 12},
		"latency":      {Workload: "bfs-citation", DTBLLaunchLatency: 100},
		"two-level":    {Workload: "bfs-citation", WarpPolicy: "two-level"},
		"nested-4":     {Workload: "nested-4"},
		"warp-policy":  {Workload: "bfs-citation", WarpPolicy: "lrr"},
		"max-cycles":   {Workload: "bfs-citation", MaxCycles: 12345},
		"sample-every": {Workload: "bfs-citation", SampleEvery: 64},
		"attribution":  {Workload: "bfs-citation", Attribution: true},
		"audit":        {Workload: "bfs-citation", Audit: true},
		"dense-clock":  {Workload: "bfs-citation", DenseClock: true},
	}
	for name, v := range variants {
		h, err := v.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == h0 {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	_, err := Parse([]byte(`{"workload":"amr","scael":"tiny"}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "scael") {
		t.Errorf("error does not name the unknown field: %v", err)
	}
}

func TestTrailingDataRejected(t *testing.T) {
	if _, err := Parse([]byte(`{"workload":"amr"}{"workload":"bht"}`)); err == nil {
		t.Fatal("trailing JSON accepted")
	}
}

// TestVersionBump: a spec from a future schema version must be rejected, not
// misinterpreted — and a (hypothetical) version change alters the hash, so a
// bump invalidates every cache entry by construction.
func TestVersionBump(t *testing.T) {
	future := RunSpec{SpecVersion: CurrentVersion + 1, Workload: "amr"}
	if err := future.Validate(); err == nil {
		t.Fatal("future spec_version accepted")
	}
	if _, err := future.Hash(); err == nil {
		t.Fatal("Hash succeeded on an invalid spec")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]RunSpec{
		"empty-workload":   {},
		"unknown-workload": {Workload: "nope"},
		"unknown-scale":    {Workload: "amr", Scale: "huge"},
		"unknown-model":    {Workload: "amr", Model: "sycl"},
		"unknown-sched":    {Workload: "amr", Scheduler: "fifo"},
		"unknown-warp":     {Workload: "amr", WarpPolicy: "round-robin"},
		"neg-levels":       {Workload: "amr", SchedulerParams: &SchedulerParams{MaxLevels: -1}},
		// A cluster size must divide the SMX count: 13 on Table I.
		"cluster-2":         {Workload: "amr", Scale: "tiny", SchedulerParams: &SchedulerParams{ClusterSize: 2}},
		"cluster-5":         {Workload: "amr", Scale: "tiny", SchedulerParams: &SchedulerParams{ClusterSize: 5}},
		"cluster-26":        {Workload: "amr", Scale: "tiny", SchedulerParams: &SchedulerParams{ClusterSize: 26}},
		"cluster-5-of-12":   {Workload: "amr", NumSMX: 12, SchedulerParams: &SchedulerParams{ClusterSize: 5}},
		"levels-over-bound": {Workload: "amr", SchedulerParams: &SchedulerParams{MaxLevels: MaxSchedulerLevels + 1}},
		"levels-100000":     {Workload: "amr", SchedulerParams: &SchedulerParams{MaxLevels: 100000}},
		"neg-num-smx":       {Workload: "amr", NumSMX: -1},
		"num-smx-over":      {Workload: "amr", NumSMX: MaxNumSMX + 1},
		"neg-latency":       {Workload: "amr", DTBLLaunchLatency: -1},
		"neg-tb-cap":        {Workload: "amr", SchedulerParams: &SchedulerParams{TBCap: -1}},
		"tb-cap-over":       {Workload: "amr", SchedulerParams: &SchedulerParams{TBCap: MaxTBCap + 1}},
		"unknown-backup":    {Workload: "amr", SchedulerParams: &SchedulerParams{Backup: "none"}},
		"free-backup-rr":    {Workload: "amr", Scheduler: "rr", SchedulerParams: &SchedulerParams{Backup: BackupFree}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	// A bounded size's error names its field and its bound.
	for _, tc := range []struct {
		s            RunSpec
		field, bound string
	}{
		{RunSpec{Workload: "amr", SchedulerParams: &SchedulerParams{MaxLevels: 100000}}, "scheduler_params.max_levels", "MaxSchedulerLevels"},
		{RunSpec{Workload: "amr", NumSMX: 100000}, "num_smx", "MaxNumSMX"},
		{RunSpec{Workload: "amr", SchedulerParams: &SchedulerParams{TBCap: 100000}}, "scheduler_params.tb_cap", "MaxTBCap"},
	} {
		err := tc.s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), tc.bound) {
			t.Errorf("Validate(%+v) = %v, want an error naming %s and %s", tc.s, err, tc.field, tc.bound)
		}
	}
	var ue *kernels.UnknownWorkloadError
	if err := (RunSpec{Workload: "nope"}).Validate(); !errors.As(err, &ue) {
		t.Errorf("unknown workload error is %T, want *kernels.UnknownWorkloadError", err)
	}
	// Both workload errors list every name Lookup accepts: Table II,
	// then nested-4.
	table2, nested := kernels.Names(), kernels.Nested().Name
	for _, s := range []RunSpec{{Workload: "nope"}, {}} {
		msg := fmt.Sprint(s.Validate())
		if i := strings.Index(msg, nested); i < 0 || i < strings.Index(msg, table2[len(table2)-1]) {
			t.Errorf("Validate(%+v) = %s, want an error naming %s after Table II", s, msg, nested)
		}
	}
}

// TestNormalizedDoesNotAliasParams: Normalized must deep-copy
// SchedulerParams so mutating the copy cannot change the original's hash.
func TestNormalizedDoesNotAliasParams(t *testing.T) {
	orig := RunSpec{Workload: "amr", SchedulerParams: &SchedulerParams{MaxLevels: 2}}
	n := orig.Normalized()
	n.SchedulerParams.MaxLevels = 9
	if orig.SchedulerParams.MaxLevels != 2 {
		t.Fatal("Normalized aliased SchedulerParams")
	}
}

// TestBuildRuns: a spec builds into a simulator that runs to completion, and
// equal specs produce identical Results.
func TestBuildRuns(t *testing.T) {
	s := RunSpec{Workload: "amr", Scale: "tiny", Scheduler: "rr", SampleEvery: 1024}
	run := func() *gpu.Result {
		sim, w, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != "amr" {
			t.Fatalf("Build returned workload %q", w.Name)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		res.WallTime, res.SimCyclesPerSec = 0, 0
		return res
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("equal specs produced different Results")
	}
	if len(r1.Timeline) == 0 {
		t.Error("SampleEvery did not produce a timeline")
	}
}

// TestBuildWithHook: BuildWith's customize hook sees (and can edit) the
// assembled options.
func TestBuildWithHook(t *testing.T) {
	s := RunSpec{Workload: "amr", Scale: "tiny", Scheduler: "rr"}
	dispatches := 0
	sim, _, err := s.BuildWith(func(g *gpu.Options) {
		if g.Config == nil || g.Scheduler == nil {
			t.Error("hook ran before options were assembled")
		}
		g.TraceDispatch = func(*gpu.KernelInstance, int, int, uint64) { dispatches++ }
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if dispatches == 0 {
		t.Error("customize hook's trace was not wired through")
	}
}

// TestSchedulerParamsApplied: SchedulerParams override the Table I values
// handed to the scheduler factory and change the built scheduler.
func TestSchedulerParamsApplied(t *testing.T) {
	s := RunSpec{Workload: "amr", Scheduler: "tb-pri",
		SchedulerParams: &SchedulerParams{MaxLevels: 1}}
	gopts, _, err := s.Options(nil)
	if err != nil {
		t.Fatal(err)
	}
	if gopts.Config.MaxPriorityLevels != 1 {
		t.Errorf("MaxPriorityLevels = %d, want 1", gopts.Config.MaxPriorityLevels)
	}
}

// TestAssemblerAppliesNewFields: the machine overrides land on a private
// copy of the base machine, the TB cap wraps the scheduler in
// core.Throttled, and the warp policy resolves by smx.Policy's name.
func TestAssemblerAppliesNewFields(t *testing.T) {
	base := config.SmallTest()
	s := RunSpec{Workload: "nested-4", Scheduler: "adaptive-bind", WarpPolicy: "two-level",
		NumSMX: 12, DTBLLaunchLatency: 5000,
		SchedulerParams: &SchedulerParams{ClusterSize: 4, TBCap: 3, Backup: BackupFree}}
	g, w, err := s.Options(&base)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "nested-4" {
		t.Errorf("workload %q", w.Name)
	}
	c := g.Config
	if c.NumSMX != 12 || c.DTBLLaunchLatency != 5000 || c.SMXsPerCluster != 4 || c.TBsPerSMX != base.TBsPerSMX {
		t.Errorf("machine = %+v, want SmallTest with 12 SMXs, latency 5000, clusters of 4", *c)
	}
	if base.NumSMX != config.SmallTest().NumSMX {
		t.Error("Options modified the base machine")
	}
	th, ok := g.Scheduler.(*core.Throttled)
	if !ok || th.MaxTBsPerSMX != 3 {
		t.Fatalf("scheduler = %T, want *core.Throttled capped at 3", g.Scheduler)
	}
	if _, ok := th.Inner.(*core.AdaptiveBind); !ok {
		t.Errorf("capped scheduler wraps %T, want *core.AdaptiveBind", th.Inner)
	}
	if g.WarpPolicy != smx.TwoLevel {
		t.Errorf("warp policy %v, want two-level", g.WarpPolicy)
	}
}
