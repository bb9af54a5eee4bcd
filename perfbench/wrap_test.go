package main

import (
	"testing"

	"laperm/internal/core"
	"laperm/internal/gpu"
)

// The traced run's scheduler wrapper must not change what is simulated or
// how the clock runs: for every registered scheduler × model, wrapped and
// unwrapped runs give identical outcomes under both clocks, and the wrapper
// keeps an IdleAware scheduler's idle Selects elided under fast-forward.
func TestCountingWrapperIsTransparent(t *testing.T) {
	for _, info := range core.Schedulers() {
		for _, model := range gpu.ModelNames() {
			for _, w := range []string{"bfs-citation", "join-uniform"} {
				c := cell{model, w, info.Name}
				var selects [2]uint64
				for i, dense := range []bool{false, true} {
					plain, err := simulate(c, "tiny", func(o *gpu.Options) { o.DenseClock = dense })
					if err != nil {
						t.Fatal(err)
					}
					var n coreCounts
					wrapped, err := simulate(c, "tiny", func(o *gpu.Options) {
						o.DenseClock = dense
						o.Scheduler = wrapScheduler(o.Scheduler, &n)
						_, inner := o.Scheduler.(gpu.IdleAware)
						if inner != info.IdleAware {
							t.Errorf("%s: wrapper IdleAware = %t, scheduler's = %t", c.key(), inner, info.IdleAware)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if wrapped != plain {
						t.Errorf("%s dense=%t: wrapped outcome %s, unwrapped %s", c.key(), dense, wrapped, plain)
					}
					if n.selects == 0 || n.enqueues == 0 {
						t.Errorf("%s dense=%t: wrapper saw %d selects, %d enqueues", c.key(), dense, n.selects, n.enqueues)
					}
					selects[i] = n.selects
				}
				if info.IdleAware && selects[0] >= selects[1] {
					t.Errorf("%s: %d Selects under fast-forward, %d dense; idle Selects were not elided",
						c.key(), selects[0], selects[1])
				}
			}
		}
	}
}
