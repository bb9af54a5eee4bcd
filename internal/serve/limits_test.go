package serve

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is a settable rateLimits.now.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

// TestRateLimitsForgetRefilledTenants: tenant names are untrusted, so the
// limiter must not keep a bucket for every name it has seen. 10 000 tenants
// each submit once, one token's refill apart, and then 10 000 more all at
// one instant after a refill: each is admitted (a forgotten bucket answers
// like a fresh one), and the map stays bounded by the tenants still
// refilling, not the names seen.
func TestRateLimitsForgetRefilledTenants(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	rl := newRateLimits(1, 2)
	rl.now = clock.now
	peak := 0
	for i := 0; i < 10000; i++ {
		if ok, _ := rl.Allow(fmt.Sprintf("tenant-%d", i)); !ok {
			t.Fatalf("tenant %d throttled on its first submission", i)
		}
		peak = max(peak, len(rl.buckets))
		clock.t = clock.t.Add(time.Second) // one token refills
	}
	if peak > 4 {
		t.Errorf("staggered tenants: map peaked at %d buckets, want at most 4", peak)
	}

	// A burst at one instant is live state the limiter must keep; once it
	// has refilled, the next burst's arrivals sweep it away.
	for round := 0; round < 2; round++ {
		for i := 0; i < 10000; i++ {
			if ok, _ := rl.Allow(fmt.Sprintf("burst-%d-%d", round, i)); !ok {
				t.Fatalf("round %d tenant %d throttled on its first submission", round, i)
			}
			peak = max(peak, len(rl.buckets))
		}
		clock.t = clock.t.Add(time.Second)
	}
	if peak >= 2*10000+2 {
		t.Errorf("bursts: map peaked at %d buckets, want under twice the 10000 refilling", peak)
	}
}

// TestRateLimitsKeepThrottledTenant: sweeps triggered by other tenants must
// keep a bucket that has not refilled, so a throttled tenant stays
// throttled with the same Retry-After it would have had.
func TestRateLimitsKeepThrottledTenant(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	rl := newRateLimits(0.1, 1) // one token per 10 s
	rl.now = clock.now
	if ok, _ := rl.Allow("slow"); !ok {
		t.Fatal("first submission throttled")
	}
	if ok, after := rl.Allow("slow"); ok || after != 10 {
		t.Fatalf("second submission: ok %t, Retry-After %d; want throttled, 10", ok, after)
	}
	for i := 0; i < 1000; i++ {
		rl.Allow(fmt.Sprintf("other-%d", i))
		clock.t = clock.t.Add(3 * time.Millisecond)
	}
	if rl.buckets["slow"] == nil {
		t.Fatal("throttled tenant's bucket was swept")
	}
	if ok, after := rl.Allow("slow"); ok || after != 7 {
		t.Fatalf("after 3 s: ok %t, Retry-After %d; want throttled, 7", ok, after)
	}
	if len(rl.buckets) > 2*1001+1 {
		t.Errorf("%d buckets for 1001 tenants", len(rl.buckets))
	}
}
