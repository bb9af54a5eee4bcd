package smx

import (
	"reflect"
	"testing"
	"unsafe"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// TestResetMatchesNew is the SMX reset oracle: an SMX left mid-run — blocks
// resident, warps stalled on a full MSHR table and on a full launch queue,
// retired blocks on the freelists — and then Reset and bound to a new run
// must equal the SMX New builds for that run, field by field. Only the
// freelists may differ, and every record on them must be blank: holding no
// program, owner or block of the run that used it.
func TestResetMatchesNew(t *testing.T) {
	for _, policy := range Policies() {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := config.SmallTest()
			cfg.L1MSHRs = 4
			m := mem.NewSystem(&cfg)
			var seq uint64
			s := New(0, &cfg, m, &recorder{refuse: 1 << 30}, policy, &seq)

			child := isa.NewKernel("child").Add(isa.NewTB(32).Compute(1).Build()).Build()
			scattered := isa.NewTB(128).Load(func(tid int) uint64 { return uint64(tid) * 4096 }).Compute(2).Build()
			launcher := isa.NewTB(64).Compute(1).Launch(0, child).Compute(1).Build()
			short := isa.NewTB(64).ComputeN(1, 2).Build()
			// The short block is the oldest, so every policy retires it first.
			s.AddBlock(short, "short", 0)
			s.AddBlock(scattered, "scattered", 0)
			s.AddBlock(launcher, "launcher", 0)
			for now := uint64(0); now < 60; now++ {
				if now < 40 && s.CanFit(short) {
					s.AddBlock(short, "short", now)
				}
				s.Tick(now)
			}
			if s.memStalledWarps == 0 || s.launchStalledWarps == 0 || len(s.freeBlocks) == 0 || len(s.blocks) == 0 {
				t.Fatalf("dirty SMX has %d MSHR-stalled and %d launch-stalled warps, %d resident and %d free blocks; "+
					"the oracle needs all four", s.memStalledWarps, s.launchStalledWarps, len(s.blocks), len(s.freeBlocks))
			}

			s.Reset()
			for _, b := range s.freeBlocks {
				if b.Prog != nil || b.Owner != nil || len(b.warps) != 0 {
					t.Fatalf("freelisted block still holds program %p, owner %v, %d warps", b.Prog, b.Owner, len(b.warps))
				}
			}
			for _, w := range s.freeWarps {
				if !reflect.DeepEqual(*w, warp{}) {
					t.Fatalf("freelisted warp is not blank: %+v", *w)
				}
			}
			rec := &recorder{}
			var seq2 uint64
			s.Bind(&cfg, rec, policy, &seq2)
			fresh := New(0, &cfg, m, rec, policy, &seq2)
			sv, fv := reflect.ValueOf(s).Elem(), reflect.ValueOf(fresh).Elem()
			for i := 0; i < sv.NumField(); i++ {
				name := sv.Type().Field(i).Name
				if name == "freeBlocks" || name == "freeWarps" {
					continue
				}
				got, want := exported(sv.Field(i)), exported(fv.Field(i))
				// A reset slice keeps its backing array where New has none.
				if sv.Field(i).Kind() == reflect.Slice && sv.Field(i).Len() == 0 && fv.Field(i).Len() == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("field %s: reset %v, new %v", name, got, want)
				}
			}
		})
	}
}

// exported returns the value of a field of an addressable struct, exported
// or not.
func exported(f reflect.Value) any {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}
