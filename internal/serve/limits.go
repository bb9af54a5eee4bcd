package serve

import (
	"math"
	"sync"
	"time"
)

// rateLimits is a per-tenant token bucket over sweep submissions. Each
// tenant accrues tokens at rps per second up to burst; a submission
// consumes one. An empty bucket answers with how many whole seconds until
// the next token — the Retry-After the 429 carries.
//
// Tenant names come from untrusted requests, so the bucket map must not
// grow with every name ever seen. A bucket that has refilled to burst
// behaves exactly like the fresh one a new tenant gets, so it can be
// dropped without changing any answer: when a new tenant arrives and the
// map has reached sweepAt, every refilled bucket is deleted and sweepAt
// moves to twice the buckets left. The map thus stays within about twice
// the tenants still refilling, and a sweep's cost is paid for by the
// insertions since the last one.
type rateLimits struct {
	mu      sync.Mutex
	rps     float64
	burst   float64
	buckets map[string]*bucket
	sweepAt int
	now     func() time.Time // test hook
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newRateLimits builds the limiter; rps <= 0 disables limiting entirely.
func newRateLimits(rps float64, burst int) *rateLimits {
	if rps <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &rateLimits{
		rps:     rps,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// Allow consumes one token for tenant, reporting whether the submission may
// proceed and, when it may not, the whole-second Retry-After to send. A nil
// limiter allows everything.
func (rl *rateLimits) Allow(tenant string) (ok bool, retryAfter int) {
	if rl == nil {
		return true, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	b := rl.buckets[tenant]
	if b == nil {
		if len(rl.buckets) >= rl.sweepAt {
			rl.sweep(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[tenant] = b
	} else {
		b.tokens = rl.refill(b, now)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / rl.rps
	return false, int(math.Ceil(wait))
}

// refill returns b's token count at now.
func (rl *rateLimits) refill(b *bucket, now time.Time) float64 {
	return math.Min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.rps)
}

// sweep deletes every bucket that has refilled to burst by now.
func (rl *rateLimits) sweep(now time.Time) {
	for tenant, b := range rl.buckets {
		if rl.refill(b, now) >= rl.burst {
			delete(rl.buckets, tenant)
		}
	}
	rl.sweepAt = 2*len(rl.buckets) + 1
}
