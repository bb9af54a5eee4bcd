package core

import (
	"fmt"
	"reflect"
	"testing"

	"laperm/internal/gpu"
	"laperm/internal/isa"
)

// These tests pin the gpu.IdleAware contract each scheduler declares: the
// state effect of n real Select calls on a quiesced (or empty) scheduler must
// be reproduced exactly by the O(1)/O(SMX) skip methods the fast-forward
// clock substitutes for them. Each case runs two identically-loaded twins —
// one taking real Select calls, one taking the skip — and requires their
// subsequent dispatch decisions (and, for the binding schedulers, their raw
// cursor/backup state) to be indistinguishable.

const idleNumSMX = 4

// idleSchedulers returns a constructor per registered policy whose metadata
// declares gpu.IdleAware, plus the two ablation variants the experiments
// build outside the registry (the free-backup bank and a throttled
// Adaptive-Bind) — every one of them must pass the twin tests below.
func idleSchedulers() map[string]func() gpu.TBScheduler {
	cfg := conformanceConfig()
	cfg.NumSMX = idleNumSMX
	cfg.MaxPriorityLevels = 3
	mks := make(map[string]func() gpu.TBScheduler)
	for _, info := range Schedulers() {
		if !info.IdleAware {
			continue
		}
		info := info
		mks[info.Name] = func() gpu.TBScheduler { return info.New(&cfg) }
	}
	mks["adaptive-bind/free-backup"] = func() gpu.TBScheduler {
		return NewBindClusters(cfg.NumSMX, cfg.SMXsPerCluster, cfg.MaxPriorityLevels, BackupFree)
	}
	mks["adaptive-bind+throttle"] = func() gpu.TBScheduler {
		return NewThrottled(NewBindClusters(cfg.NumSMX, cfg.SMXsPerCluster, cfg.MaxPriorityLevels, BackupSticky), 1)
	}
	return mks
}

// loadMixed enqueues an identical mixed working set: one host kernel in the
// global queue and children bound across every SMX at varying priorities.
// idBase keeps kernel IDs distinct between successive loads so dispatch
// sequences can be compared by ID.
func loadMixed(s gpu.TBScheduler, idBase int) {
	parent := ki(idBase, 0, -1, nil, 0)
	s.Enqueue(ki(idBase+1, 0, -1, nil, 3)) // host kernel, global queue
	for i := 0; i < idleNumSMX; i++ {
		s.Enqueue(ki(idBase+2+i, 1+i%3, i, parent, 2)) // bound children
	}
}

// rawState extracts the binding schedulers' cursor/backup internals so twins
// can be compared beyond black-box behaviour.
func rawState(s gpu.TBScheduler) string {
	switch v := s.(type) {
	case *Throttled:
		return rawState(v.Inner)
	case *AdaptiveBind:
		return fmt.Sprintf("cursor=%d backup=%v", v.cursor, v.backup)
	case *WorkSteal:
		return fmt.Sprintf("cursor=%d", v.cursor)
	}
	return ""
}

// TestSkipIdleSelectsMatchesRealNilSelects: after the proving nil round, m
// further real nil Selects and SkipIdleSelects(m) must leave the scheduler in
// the same state for every m, including cursor wraparounds.
func TestSkipIdleSelectsMatchesRealNilSelects(t *testing.T) {
	blocked := &fakeDispatcher{numSMX: idleNumSMX, fit: func(int, *isa.TB) bool { return false }}
	for name, mk := range idleSchedulers() {
		for m := uint64(0); m <= 2*idleNumSMX+3; m++ {
			real, skip := mk(), mk()
			loadMixed(real, 0)
			loadMixed(skip, 0)

			period := real.(gpu.IdleAware).IdleSelectPeriod()
			for i := 0; i < period; i++ { // the proving round, on both twins
				if k, _ := real.Select(blocked); k != nil {
					t.Fatalf("%s: blocked dispatcher yielded kernel %d", name, k.ID)
				}
				if k, _ := skip.Select(blocked); k != nil {
					t.Fatalf("%s: blocked dispatcher yielded kernel %d", name, k.ID)
				}
			}
			for i := uint64(0); i < m; i++ {
				if k, _ := real.Select(blocked); k != nil {
					t.Fatalf("%s: post-quiescence Select yielded kernel %d", name, k.ID)
				}
			}
			skip.(gpu.IdleAware).SkipIdleSelects(m)

			if rs, ss := rawState(real), rawState(skip); rs != ss {
				t.Errorf("%s m=%d: internal state diverges: real %s, skip %s", name, m, rs, ss)
			}
			open := &fakeDispatcher{numSMX: idleNumSMX}
			seqReal := drain(t, real, open, 64)
			seqSkip := drain(t, skip, open, 64)
			if !reflect.DeepEqual(seqReal, seqSkip) {
				t.Errorf("%s m=%d: dispatch sequences diverge:\nreal: %v\nskip: %v",
					name, m, seqReal, seqSkip)
			}
		}
	}
}

// TestSkipEmptySelectsMatchesRealEmptySelects: once every enqueued instance
// is exhausted, m real Select calls and SkipEmptySelects(m) must be
// equivalent — without any proving round first. This is the engine's
// schedLive == 0 shortcut, and the interesting twin is AdaptiveBind, whose
// empty-machine Selects clear backup recordings one SMX per call.
func TestSkipEmptySelectsMatchesRealEmptySelects(t *testing.T) {
	for name, mk := range idleSchedulers() {
		for m := uint64(0); m <= 2*idleNumSMX+3; m++ {
			real, skip := mk(), mk()
			open := &fakeDispatcher{numSMX: idleNumSMX}

			// Identical history: dispatch a full working set to exhaustion,
			// which leaves the binding cursors mid-round and (for
			// AdaptiveBind) backup banks recorded by the steals.
			loadMixed(real, 0)
			loadMixed(skip, 0)
			if a, b := drain(t, real, open, 64), drain(t, skip, open, 64); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: twins diverged during setup drain", name)
			}

			for i := uint64(0); i < m; i++ {
				if k, _ := real.Select(open); k != nil {
					t.Fatalf("%s: empty scheduler yielded kernel %d", name, k.ID)
				}
			}
			skip.(gpu.IdleAware).SkipEmptySelects(m)

			if rs, ss := rawState(real), rawState(skip); rs != ss {
				t.Errorf("%s m=%d: internal state diverges: real %s, skip %s", name, m, rs, ss)
			}
			loadMixed(real, 100)
			loadMixed(skip, 100)
			seqReal := drain(t, real, open, 64)
			seqSkip := drain(t, skip, open, 64)
			if !reflect.DeepEqual(seqReal, seqSkip) {
				t.Errorf("%s m=%d: post-skip dispatch sequences diverge:\nreal: %v\nskip: %v",
					name, m, seqReal, seqSkip)
			}
		}
	}
}
