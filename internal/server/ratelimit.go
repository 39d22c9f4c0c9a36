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
// seen — the property that matters at millions-of-users scale. The map is
// swept lazily on the allow path, at most once per DefaultBucketTTL/4, so
// eviction stays O(1) amortized.
const DefaultBucketTTL = time.Minute

// RateLimiter is a token bucket per key: a client IP under WithClientRate,
// a market ID under WithTenantRate.
type RateLimiter struct {
	mu sync.Mutex
	// rate is tokens added per second; burst the bucket capacity.
	rate, burst float64            // guarded by mu
	buckets     map[string]*bucket // guarded by mu
	lastSweep   time.Time          // guarded by mu
	now         func() time.Time   // guarded by mu; injectable clock for tests

	throttled *telemetry.Counter // guarded by mu
	evicted   *telemetry.Counter // guarded by mu
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter allows `rate` requests per second with bursts up to
// `burst` per key. Idle buckets are evicted after DefaultBucketTTL.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if rate <= 0 {
		rate = 10
	}
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// WithClientRate gives every client IP its own budget of `rate` requests
// per second with bursts up to `burst`. The limiter runs after routing,
// inside the route the request matched: a throttled request is answered
// 429 with Retry-After, counted in nimbus_http_throttled_total and under
// its route's series, and a path no route serves spends no token.
func WithClientRate(rate float64, burst int) Option {
	return func(s *Server) { s.clientRL = NewRateLimiter(rate, burst) }
}

// setTelemetry points the limiter's throttle/eviction counters at reg.
func (rl *RateLimiter) setTelemetry(reg *telemetry.Registry) {
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

// allowClient debits r's client IP.
func (rl *RateLimiter) allowClient(r *http.Request) bool {
	client, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		client = r.RemoteAddr
	}
	return rl.allow(client)
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
		rl.throttled.Inc() // under mu: setTelemetry may race otherwise
		return false
	}
	b.tokens--
	return true
}

// sweepLocked evicts buckets idle longer than DefaultBucketTTL, at most
// once per DefaultBucketTTL/4. Callers hold rl.mu.
//
//lint:holds mu
func (rl *RateLimiter) sweepLocked(now time.Time) {
	if now.Sub(rl.lastSweep) < DefaultBucketTTL/4 {
		return
	}
	rl.lastSweep = now
	for k, b := range rl.buckets {
		if now.Sub(b.last) > DefaultBucketTTL {
			delete(rl.buckets, k)
			rl.evicted.Inc()
		}
	}
}
