package loadgen

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"nimbus/internal/registry"
	"nimbus/internal/rng"
	"nimbus/internal/server"
	"nimbus/internal/telemetry"
)

// newBrokerServer serves a memory-only registry with one small regression
// market behind the full production middleware, mirroring nimbusd's
// wiring.
func newBrokerServer(t *testing.T, reg *telemetry.Registry) *httptest.Server {
	t.Helper()
	r, err := registry.Open(registry.Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if _, err := r.List(registry.Spec{
		ID: "casp", Generator: "CASP", Rows: 200, Grid: 12, Samples: 40, Seed: 11, ValueScale: 60,
	}, nil); err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}
	handler := server.NewMulti(r, server.WithLogger(quiet), server.WithTelemetry(reg))
	srv := httptest.NewServer(server.WithMiddleware(handler, quiet, reg))
	t.Cleanup(srv.Close)
	return srv
}

func client(srv *httptest.Server) *server.Client {
	return &server.Client{BaseURL: srv.URL}
}

// TestRunCountMode drives an exact request count through the generator and
// checks the report adds up with zero errors — satisfiable budgets mean
// every generated purchase should land a 2xx.
func TestRunCountMode(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := newBrokerServer(t, reg)
	rep, err := Run(context.Background(), client(srv), Config{
		Concurrency: 4,
		Count:       100,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 100 {
		t.Errorf("requests = %d, want 100", rep.Requests)
	}
	if rep.Errors != 0 || rep.NonOK != 0 {
		t.Errorf("errors = %d (non-2xx %d), want 0: all budgets derive from listed curve points", rep.Errors, rep.NonOK)
	}
	var byOpt int
	for _, opt := range PurchaseOptions {
		n := rep.ByOption[opt]
		if n == 0 {
			t.Errorf("option %q never exercised", opt)
		}
		byOpt += n
	}
	if byOpt != rep.Requests {
		t.Errorf("per-option counts sum to %d, want %d", byOpt, rep.Requests)
	}
	if rep.Revenue <= 0 {
		t.Errorf("revenue = %v, want > 0", rep.Revenue)
	}
	if rep.P50 <= 0 || rep.P95 < rep.P50 || rep.P99 < rep.P95 || rep.Max < rep.P99 {
		t.Errorf("latency percentiles out of order: p50=%v p95=%v p99=%v max=%v", rep.P50, rep.P95, rep.P99, rep.Max)
	}
	if rep.QPS <= 0 {
		t.Errorf("qps = %v, want > 0", rep.QPS)
	}

	// The generator's own revenue tally must agree with the broker's
	// telemetry — the load core is also a consistency check on /metrics.
	snap := reg.Snapshot()
	if got := snap.CounterValue("nimbus_revenue_total"); !within(got, rep.Revenue, 1e-6) {
		t.Errorf("broker revenue series = %v, generator saw %v", got, rep.Revenue)
	}
	if got := snap.CounterValue("nimbus_http_requests_total", "route", "POST /api/v1/buy", "class", "2xx"); got != float64(rep.Requests) {
		t.Errorf("buy 2xx series = %v, want %v", got, rep.Requests)
	}
}

// TestRunDurationMode checks the time-bounded mode terminates on its own.
func TestRunDurationMode(t *testing.T) {
	srv := newBrokerServer(t, nil)
	start := time.Now()
	rep, err := Run(context.Background(), client(srv), Config{
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("duration mode ran %v, expected a prompt stop", elapsed)
	}
	if rep.Requests == 0 {
		t.Error("duration mode completed no requests")
	}
}

// TestRunPacing checks the shared ticker actually caps aggregate QPS: 20
// requests at 100 req/s cannot finish faster than ~200ms no matter how many
// buyers run.
func TestRunPacing(t *testing.T) {
	srv := newBrokerServer(t, nil)
	start := time.Now()
	rep, err := Run(context.Background(), client(srv), Config{
		Concurrency: 8,
		Count:       20,
		Rate:        100,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("20 requests at 100 req/s finished in %v; pacing is not applied", elapsed)
	}
	if rep.Requests != 20 || rep.Errors != 0 {
		t.Errorf("requests = %d errors = %d, want 20 and 0", rep.Requests, rep.Errors)
	}
}

// TestRunRejectsBadConfig covers the validation error paths.
func TestRunRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no concurrency", Config{Concurrency: 0, Count: 1}},
		{"no bound", Config{Concurrency: 1}},
		{"negative rate", Config{Concurrency: 1, Count: 1, Rate: -5}},
	} {
		if _, err := Run(context.Background(), nil, tc.cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

// TestRunEmptyMenu checks the generator refuses a broker with nothing to
// sell instead of spinning.
func TestRunEmptyMenu(t *testing.T) {
	r, err := registry.Open(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	srv := httptest.NewServer(server.NewMulti(r, server.WithLogger(func(string, ...any) {})))
	t.Cleanup(srv.Close)
	_, err = Run(context.Background(), client(srv), Config{
		Concurrency: 1, Count: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "empty menu") {
		t.Errorf("err = %v, want empty-menu refusal", err)
	}
}

// TestPercentile pins the nearest-rank convention.
func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1},
	} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

func within(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestNextRequestDeterministic pins the replayable traffic mix at its
// source: with the same seed and target list, the generated request
// sequence is identical value for value — no server required.
func TestNextRequestDeterministic(t *testing.T) {
	targets := []target{
		{offering: "CASP/linreg", loss: "squared", points: []curvePoint{
			{x: 1, err: 0.9, price: 10}, {x: 2, err: 0.5, price: 20}, {x: 5, err: 0.1, price: 45},
		}},
		{offering: "CASP/linreg", loss: "absolute", points: []curvePoint{
			{x: 1, err: 0.8, price: 12}, {x: 3, err: 0.3, price: 30},
		}},
	}
	gen := func(seed int64, n int) []server.BuyRequest {
		rnd := rng.New(seed)
		reqs := make([]server.BuyRequest, n)
		for i := range reqs {
			reqs[i] = nextRequest(rnd, targets)
		}
		return reqs
	}
	a, b := gen(42, 500), gen(42, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different request sequences")
	}
	c := gen(43, 500)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the identical 500-request sequence")
	}
	// Every option appears, and every value is positive and finite — the
	// mix covers the API surface with satisfiable requests.
	seen := map[string]int{}
	for _, r := range a {
		seen[r.Option]++
		if r.Value <= 0 {
			t.Fatalf("generated non-positive value: %+v", r)
		}
	}
	for _, opt := range PurchaseOptions {
		if seen[opt] == 0 {
			t.Errorf("option %q never generated in 500 draws", opt)
		}
	}
}

// TestRunReplayableWithSeed pins end-to-end replayability: two runs with
// the same seed against identically-listed brokers must issue the
// identical purchase mix and collect the identical revenue, bit for bit.
func TestRunReplayableWithSeed(t *testing.T) {
	do := func() Report {
		rep, err := Run(context.Background(), client(newBrokerServer(t, nil)), Config{
			Concurrency: 1,
			Count:       60,
			Seed:        99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := do(), do()
	if !reflect.DeepEqual(a.ByOption, b.ByOption) {
		t.Errorf("option mix not replayable: %v vs %v", a.ByOption, b.ByOption)
	}
	if a.Revenue != b.Revenue {
		t.Errorf("revenue not replayable: %v vs %v", a.Revenue, b.Revenue)
	}
	if a.Requests != b.Requests {
		t.Errorf("request counts differ: %d vs %d", a.Requests, b.Requests)
	}
}
