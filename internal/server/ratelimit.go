package server

import (
	"net"
	"net/http"
	"sync"
	"time"

	"nimbus/internal/telemetry"
)

// A public marketplace endpoint needs per-client rate limiting: model
// purchases are cheap for the broker but each one hands out a fresh noisy
// instance, and an unthrottled scraper could hoard instances faster than
// the pricing assumes. (Averaging them still cannot beat the arbitrage-free
// prices — see the attack experiment — but the broker shouldn't hand out
// free compute either.)

// DefaultBucketTTL is how long an idle client keeps its token bucket; a
// bucket idle longer than this refills to the full burst anyway, so
// dropping it changes nothing for the client while keeping the bucket map
// proportional to the *active* client set rather than every address ever
// seen — the property that matters at millions-of-users scale.
const DefaultBucketTTL = time.Minute

// RateLimiter is a per-client token bucket keyed by remote IP.
type RateLimiter struct {
	mu sync.Mutex
	// rate is tokens added per second; burst the bucket capacity.
	rate, burst float64            // guarded by mu
	buckets     map[string]*bucket // guarded by mu
	// ttl is the idle eviction horizon; lastSweep gates how often the map
	// is swept (at most once per sweepEvery) so eviction stays O(1)
	// amortized on the allow path.
	ttl        time.Duration    // guarded by mu
	sweepEvery time.Duration    // guarded by mu
	lastSweep  time.Time        // guarded by mu
	now        func() time.Time // guarded by mu; injectable clock for tests

	throttled *telemetry.Counter // guarded by mu
	evicted   *telemetry.Counter // guarded by mu
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter allows `rate` requests per second with bursts up to
// `burst` per client IP. Idle buckets are evicted after DefaultBucketTTL
// (tunable via SetTTL).
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if rate <= 0 {
		rate = 10
	}
	if burst < 1 {
		burst = 1
	}
	rl := &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
	rl.SetTTL(DefaultBucketTTL)
	return rl
}

// SetTTL changes the idle-bucket eviction horizon. Sweeps run lazily on
// Allow, at most once per ttl/4.
func (rl *RateLimiter) SetTTL(ttl time.Duration) {
	if ttl <= 0 {
		ttl = DefaultBucketTTL
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.ttl = ttl
	rl.sweepEvery = ttl / 4
}

// SetTelemetry points the limiter's throttle/eviction counters at reg.
func (rl *RateLimiter) SetTelemetry(reg *telemetry.Registry) {
	reg.Help("nimbus_http_throttled_total", "Requests rejected by the per-client rate limiter.")
	reg.Help("nimbus_ratelimit_evicted_total", "Idle client buckets evicted by the TTL sweep.")
	// Manual unlock: GaugeFunc below must run outside the lock (its closure
	// takes rl.mu on every scrape); lock-contract checks the release.
	rl.mu.Lock()
	rl.throttled = reg.Counter("nimbus_http_throttled_total")
	rl.evicted = reg.Counter("nimbus_ratelimit_evicted_total")
	rl.mu.Unlock()
	reg.GaugeFunc("nimbus_ratelimit_buckets", func() float64 { return float64(rl.Len()) })
}

// Len reports the number of live client buckets.
func (rl *RateLimiter) Len() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.buckets)
}

// allow reports whether the client may proceed and debits a token if so.
func (rl *RateLimiter) allow(client string) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	rl.sweepLocked(now)
	b, ok := rl.buckets[client]
	if !ok {
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rl.rate
	if b.tokens > rl.burst {
		b.tokens = rl.burst
	}
	b.last = now
	if b.tokens < 1 {
		rl.throttled.Inc() // under mu: SetTelemetry may race otherwise
		return false
	}
	b.tokens--
	return true
}

// sweepLocked evicts buckets idle longer than the TTL, at most once per
// sweepEvery. Callers hold rl.mu.
//
//lint:holds mu
func (rl *RateLimiter) sweepLocked(now time.Time) {
	if now.Sub(rl.lastSweep) < rl.sweepEvery {
		return
	}
	rl.lastSweep = now
	for k, b := range rl.buckets {
		if now.Sub(b.last) > rl.ttl {
			delete(rl.buckets, k)
			rl.evicted.Inc()
		}
	}
}

// Wrap applies the limiter to a handler, answering 429 when a client
// exceeds its budget.
func (rl *RateLimiter) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		client, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			client = r.RemoteAddr
		}
		if !rl.allow(client) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "rate limit exceeded"})
			return
		}
		h.ServeHTTP(w, r)
	})
}
