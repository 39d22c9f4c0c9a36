package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"nimbus/internal/telemetry"
)

// newInstrumentedServer serves a one-market registry through the full
// production stack — middleware, rate limiter, telemetry — exactly as
// nimbusd wires it.
func newInstrumentedServer(tb testing.TB, reg *telemetry.Registry, rate float64) (*httptest.Server, string) {
	tb.Helper()
	r, m := listTestMarket(tb, reg)
	quiet := func(string, ...any) {}
	opts := []Option{WithLogger(quiet), WithTelemetry(reg)}
	if rate > 0 {
		opts = append(opts, WithClientRate(rate, int(2*rate)))
	}
	srv := httptest.NewServer(WithMiddleware(NewMulti(r, opts...), quiet, reg))
	tb.Cleanup(srv.Close)
	return srv, m.Broker.Menu()[0]
}

// TestTelemetryRoundTrip drives a menu fetch and a buy through the full
// stack and asserts the matching series increment, then checks both
// exposition endpoints.
func TestTelemetryRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	srv, name := newInstrumentedServer(t, reg, 50)
	c := NewClient(srv.URL)
	ctx := context.Background()

	if _, err := c.Menu(ctx); err != nil {
		t.Fatal(err)
	}
	p, err := c.Buy(ctx, BuyRequest{Offering: name, Loss: "squared", Option: "quality", Value: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A refused purchase (unattainable error budget) must count as a
	// reject, not a sale.
	if _, err := c.Buy(ctx, BuyRequest{Offering: name, Loss: "squared", Option: "error-budget", Value: 0}); err == nil {
		t.Fatal("impossible error budget accepted")
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue("nimbus_http_requests_total", "route", "GET /api/v1/menu", "class", "2xx"); got != 1 {
		t.Fatalf("menu counter %v; series %v", got, snap.SeriesNames())
	}
	if got := snap.CounterValue("nimbus_http_requests_total", "route", "POST /api/v1/buy", "class", "2xx"); got != 1 {
		t.Fatalf("buy 2xx counter %v", got)
	}
	if got := snap.CounterValue("nimbus_http_requests_total", "route", "POST /api/v1/buy", "class", "4xx"); got != 1 {
		t.Fatalf("buy 4xx counter %v", got)
	}
	if got := snap.CounterValue("nimbus_purchases_total", "offering", name); got != 1 {
		t.Fatalf("purchases %v", got)
	}
	if got := snap.CounterValue("nimbus_revenue_total"); got != p.Price {
		t.Fatalf("revenue %v want %v", got, p.Price)
	}
	if got := snap.CounterValue("nimbus_broker_fees_total"); got != p.BrokerFee {
		t.Fatalf("fees %v want %v", got, p.BrokerFee)
	}
	if got := snap.CounterValue("nimbus_purchase_rejects_total", "reason", "unattainable"); got != 1 {
		t.Fatalf("rejects %v", got)
	}
	if h, ok := snap.HistogramValue("nimbus_noise_draw_seconds"); !ok || h.Count != 1 {
		t.Fatalf("noise draw histogram %+v ok=%v", h, ok)
	}
	if h, ok := snap.HistogramValue("nimbus_http_request_seconds", "route", "POST /api/v1/buy"); !ok || h.Count != 2 {
		t.Fatalf("buy latency histogram %+v ok=%v", h, ok)
	}

	// GET /metrics must be valid Prometheus text covering every hot-path
	// series family.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	samples, err := telemetry.ValidateText(string(body))
	if err != nil {
		t.Fatalf("%v\nfull exposition:\n%s", err, body)
	}
	if samples == 0 {
		t.Fatal("empty exposition")
	}
	for _, want := range []string{
		"nimbus_http_requests_total{",
		"nimbus_http_request_seconds_bucket{",
		"nimbus_purchases_total{",
		"nimbus_revenue_total ",
		"nimbus_purchase_rejects_total{",
		"nimbus_noise_draw_seconds_count ",
		"nimbus_http_inflight ",
		"go_goroutines ",
		"go_heap_alloc_bytes ",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// GET /api/v1/metrics returns the same state as JSON.
	remote, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := remote.CounterValue("nimbus_purchases_total", "offering", name); got != 1 {
		t.Fatalf("remote snapshot purchases %v", got)
	}
	if remote.GaugeValue("go_goroutines") < 1 {
		t.Fatal("runtime gauges missing from JSON snapshot")
	}
}

// TestMetricsEndpointWithoutRegistry: a server with no registry still
// answers both endpoints (empty exposition, empty snapshot).
func TestMetricsEndpointWithoutRegistry(t *testing.T) {
	srv, _, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("bare /metrics: %d %q", resp.StatusCode, body)
	}
	resp, err = http.Get(srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(snap.SeriesNames()); n != 0 {
		t.Fatalf("bare snapshot has %d series", n)
	}
}

// TestThrottleTelemetryThroughStack: hammering one client past the limit
// shows up in the throttle counter and as 4xx on the route.
func TestThrottleTelemetryThroughStack(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, _ := newInstrumentedServer(t, reg, 0.001) // ~2 request budget
	var throttled int
	for i := 0; i < 10; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			throttled++
		}
	}
	if throttled == 0 {
		t.Fatal("rate limit never engaged")
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("nimbus_http_throttled_total"); got != float64(throttled) {
		t.Fatalf("throttled counter %v want %d", got, throttled)
	}
	if got := snap.CounterValue("nimbus_http_requests_total", "route", "GET /healthz", "class", "4xx"); got != float64(throttled) {
		t.Fatalf("throttled requests not attributed to route: %v", got)
	}
}
