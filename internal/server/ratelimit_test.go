package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestRateLimiterAllowsBurstThenBlocks(t *testing.T) {
	rl := NewRateLimiter(1, 3)
	clock := time.Unix(1000, 0)
	rl.now = func() time.Time { return clock }
	for i := 0; i < 3; i++ {
		if !rl.allow("1.2.3.4") {
			t.Fatalf("burst request %d blocked", i)
		}
	}
	if rl.allow("1.2.3.4") {
		t.Fatal("over-burst request allowed")
	}
	// A different client has its own bucket.
	if !rl.allow("5.6.7.8") {
		t.Fatal("independent client blocked")
	}
	// Tokens refill with time.
	clock = clock.Add(2 * time.Second)
	if !rl.allow("1.2.3.4") {
		t.Fatal("refilled request blocked")
	}
}

func TestRateLimiterRefillCap(t *testing.T) {
	rl := NewRateLimiter(100, 2)
	clock := time.Unix(0, 0)
	rl.now = func() time.Time { return clock }
	if !rl.allow("a") || !rl.allow("a") {
		t.Fatal("burst blocked")
	}
	// A long idle period must not accumulate more than `burst` tokens.
	clock = clock.Add(time.Hour)
	if !rl.allow("a") || !rl.allow("a") {
		t.Fatal("post-idle burst blocked")
	}
	if rl.allow("a") {
		t.Fatal("bucket exceeded burst after idle")
	}
}

func TestRateLimiterDefaults(t *testing.T) {
	rl := NewRateLimiter(-1, 0)
	if rl.rate != 10 || rl.burst != 1 {
		t.Fatalf("defaults %v %v", rl.rate, rl.burst)
	}
}

// TestRateLimiterWrapHTTP: over its WithClientRate budget a client is
// answered 429 with Retry-After. The limiter runs after routing, so a
// path no route serves spends no token.
func TestRateLimiterWrapHTTP(t *testing.T) {
	srv, _, _ := newMultiServer(t, WithClientRate(0.001, 1)) // effectively one request
	resp, err := http.Get(srv.URL + "/wp-admin/setup.php")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmatched path: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
}

func TestRateLimiterCleanup(t *testing.T) {
	rl := NewRateLimiter(1, 1)
	clock := time.Unix(0, 0)
	rl.now = func() time.Time { return clock }
	for i := 0; i < 10001; i++ {
		rl.allow(string(rune(i)))
	}
	clock = clock.Add(2 * time.Minute)
	rl.allow("fresh") // triggers cleanup of stale buckets
	if n := rl.Len(); n > 2 {
		t.Fatalf("cleanup left %d buckets", n)
	}
}

// TestRateLimiterTTLEviction proves the bucket map shrinks back to the
// active client set: address churn must not grow memory without bound.
func TestRateLimiterTTLEviction(t *testing.T) {
	rl := NewRateLimiter(100, 2)
	clock := time.Unix(0, 0)
	rl.now = func() time.Time { return clock }

	// 5000 distinct clients churn through over 10 TTLs, so no single sweep
	// sees them all as fresh.
	for i := 0; i < 5000; i++ {
		rl.allow(fmt.Sprintf("10.0.%d.%d", i/250, i%250))
		if i%100 == 0 {
			clock = clock.Add(DefaultBucketTTL / 5)
		}
	}
	if rl.Len() >= 5000 {
		t.Fatalf("no eviction during churn: %d buckets", rl.Len())
	}

	// After everyone goes idle past the TTL, one active client's request
	// sweeps the rest away.
	clock = clock.Add(2 * DefaultBucketTTL)
	rl.allow("10.9.9.9")
	if n := rl.Len(); n != 1 {
		t.Fatalf("idle buckets survived the TTL: %d", n)
	}

	// The surviving client still has correct token state (not reset by
	// sweeps it survived).
	if !rl.allow("10.9.9.9") {
		t.Fatal("active client throttled after sweep")
	}
}

func TestRateLimiterSweepKeepsActiveBuckets(t *testing.T) {
	rl := NewRateLimiter(1, 5)
	clock := time.Unix(0, 0)
	rl.now = func() time.Time { return clock }
	for i := 0; i < 4; i++ {
		if !rl.allow("busy") {
			t.Fatalf("request %d throttled within burst", i)
		}
		clock = clock.Add(DefaultBucketTTL / 2) // past a sweep, inside the TTL
	}
	if rl.Len() != 1 {
		t.Fatalf("active bucket evicted (len=%d)", rl.Len())
	}
}

func TestRateLimiterTelemetry(t *testing.T) {
	srv, _, reg := newMultiServer(t, WithClientRate(0.001, 1))
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("nimbus_http_throttled_total"); got != 2 {
		t.Fatalf("throttled %v", got)
	}
	if got := snap.GaugeValue("nimbus_ratelimit_buckets"); got != 1 {
		t.Fatalf("bucket gauge %v", got)
	}
}
