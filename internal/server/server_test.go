package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nimbus/internal/market"
	"nimbus/internal/registry"
	"nimbus/internal/telemetry"
)

// testSpec is the one regression listing the HTTP tests sell: a CASP
// stand-in with a 15-point curve.
var testSpec = registry.Spec{
	ID:        "casp",
	Owner:     "seller-casp",
	Generator: "CASP",
	Rows:      250,
	Model:     "linear-regression",
	Grid:      15,
	Samples:   60,
	Seed:      61,
}

// listTestMarket opens a memory-only registry (wired to reg, which may be
// nil) and lists testSpec on it.
func listTestMarket(tb testing.TB, reg *telemetry.Registry) (*registry.Registry, *registry.Market) {
	tb.Helper()
	r, err := registry.Open(registry.Config{Telemetry: reg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	m, err := r.List(testSpec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return r, m
}

// newTestServer serves a one-market registry via httptest, with no
// telemetry and no middleware.
func newTestServer(t *testing.T) (*httptest.Server, *market.Broker, string) {
	t.Helper()
	r, m := listTestMarket(t, nil)
	srv := httptest.NewServer(NewMulti(r, WithLogger(func(string, ...any) {})))
	t.Cleanup(srv.Close)
	return srv, m.Broker, m.Broker.Menu()[0]
}

func TestHealthz(t *testing.T) {
	srv, _, _ := newTestServer(t)
	c := NewClient(srv.URL)
	if !c.Healthy(context.Background()) {
		t.Fatal("healthz failed")
	}
}

func TestMenuEndpoint(t *testing.T) {
	srv, _, name := newTestServer(t)
	c := NewClient(srv.URL)
	menu, err := c.Menu(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(menu.Offerings) != 1 {
		t.Fatalf("menu %+v", menu)
	}
	e := menu.Offerings[0]
	if e.Name != name || e.Model != "linear-regression" || e.Features != 9 {
		t.Fatalf("entry %+v", e)
	}
	if len(e.Losses) != 1 || e.Losses[0] != "squared" {
		t.Fatalf("losses %v", e.Losses)
	}
	if e.ExpectedRevenue <= 0 {
		t.Fatal("expected revenue missing")
	}
}

func TestCurveEndpoint(t *testing.T) {
	srv, _, name := newTestServer(t)
	c := NewClient(srv.URL)
	curve, err := c.Curve(context.Background(), name, "squared")
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 15 {
		t.Fatalf("got %d points", len(curve.Points))
	}
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Price < curve.Points[i-1].Price-1e-9 {
			t.Fatal("curve prices not monotone")
		}
		if curve.Points[i].Error > curve.Points[i-1].Error+1e-9 {
			t.Fatal("curve errors not anti-monotone")
		}
	}
	// Error cases.
	if _, err := c.Curve(context.Background(), "ghost", "squared"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("want 404, got %v", err)
	}
	if _, err := c.Curve(context.Background(), name, "hinge"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("want 404, got %v", err)
	}
	resp, err := http.Get(srv.URL + "/api/v1/curve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing params: %d", resp.StatusCode)
	}
}

func TestBuyOptions(t *testing.T) {
	srv, broker, name := newTestServer(t)
	c := NewClient(srv.URL)
	ctx := context.Background()

	q, err := c.Buy(ctx, BuyRequest{Offering: name, Loss: "squared", Option: "quality", Value: 5})
	if err != nil {
		t.Fatal(err)
	}
	if q.X != 5 || len(q.Weights) != 9 {
		t.Fatalf("purchase %+v", q)
	}

	eb, err := c.Buy(ctx, BuyRequest{Offering: name, Loss: "squared", Option: "error-budget", Value: q.ExpectedError * 2})
	if err != nil {
		t.Fatal(err)
	}
	if eb.ExpectedError > q.ExpectedError*2+1e-9 {
		t.Fatalf("error budget violated: %v", eb.ExpectedError)
	}

	pb, err := c.Buy(ctx, BuyRequest{Offering: name, Loss: "squared", Option: "price-budget", Value: q.Price})
	if err != nil {
		t.Fatal(err)
	}
	if pb.Price > q.Price+1e-6 {
		t.Fatalf("price budget violated: %v > %v", pb.Price, q.Price)
	}

	if got := broker.SaleCount(); got != 3 {
		t.Fatalf("ledger has %d sales", got)
	}
}

func TestBuyErrors(t *testing.T) {
	srv, broker, name := newTestServer(t)
	c := NewClient(srv.URL)
	ctx := context.Background()

	cases := []struct {
		req  BuyRequest
		want int
	}{
		{BuyRequest{Offering: "ghost", Loss: "squared", Option: "quality", Value: 1}, http.StatusNotFound},
		{BuyRequest{Offering: name, Loss: "squared", Option: "teleport", Value: 1}, http.StatusBadRequest},
		{BuyRequest{Offering: name, Loss: "squared", Option: "error-budget", Value: 0}, http.StatusUnprocessableEntity},
		{BuyRequest{Offering: name, Loss: "squared", Option: "price-budget", Value: 0}, http.StatusUnprocessableEntity},
	}
	for i, tc := range cases {
		if _, err := c.Buy(ctx, tc.req); !isStatus(err, tc.want) {
			t.Errorf("case %d: want %d, got %v", i, tc.want, err)
		}
	}

	// Bodies that are not exactly one known JSON object are refused before
	// any sale or listing: malformed JSON, an unknown field, and a valid
	// request followed by trailing data.
	buy := fmt.Sprintf(`{"offering":%q,"loss":"squared","option":"quality","value":2}`, name)
	list, err := json.Marshal(cheapListRequest("trailing", 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/api/v1/buy", "{nope"},
		{"/api/v1/buy", `{"surprise": 1}`},
		{"/api/v1/buy", buy + " trailing garbage {{{"},
		{"/api/v1/buy", buy + buy},
		{"/api/v1/datasets/casp/buy", buy + " trailing garbage {{{"},
		{"/api/v1/datasets", string(list) + " trailing garbage {{{"},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %.40q...: %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	if n := broker.SaleCount(); n != 0 {
		t.Fatalf("refused bodies recorded %d sales", n)
	}
	if _, err := c.Tenant("trailing").Stats(ctx); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("refused listing is live: %v", err)
	}
}

func TestBuyResponseIsValidJSON(t *testing.T) {
	srv, _, name := newTestServer(t)
	body := strings.NewReader(`{"offering":"` + name + `","loss":"squared","option":"quality","value":3}`)
	resp, err := http.Post(srv.URL+"/api/v1/buy", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"offering", "loss", "x", "ncp", "price", "expected_error", "weights"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("response missing %q: %v", key, m)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, broker, name := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(srv.URL)
			for i := 0; i < 4; i++ {
				if _, err := c.Buy(context.Background(), BuyRequest{
					Offering: name, Loss: "squared", Option: "quality", Value: 2,
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := broker.SaleCount(); n != 24 {
		t.Fatalf("ledger %d", n)
	}
}

func TestStatsAndOfferingsEndpoints(t *testing.T) {
	srv, broker, name := newTestServer(t)
	c := NewClient(srv.URL)
	ctx := context.Background()

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Offerings != 1 || stats.Sales != 0 || stats.TotalRevenue != 0 {
		t.Fatalf("fresh stats %+v", stats)
	}
	if _, err := c.Buy(ctx, BuyRequest{Offering: name, Loss: "squared", Option: "quality", Value: 4}); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sales != 1 || stats.TotalRevenue != broker.TotalRevenue() {
		t.Fatalf("stats after sale %+v", stats)
	}

	snaps, err := c.Offerings(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Name != name || !snaps[0].ArbitrageFree {
		t.Fatalf("offerings %+v", snaps)
	}

	st, err := c.Statement(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sales != 1 || len(st.Lines) != 1 || st.Lines[0].Offering != name {
		t.Fatalf("statement %+v", st)
	}
}

func isStatus(err error, code int) bool {
	apiErr, ok := err.(*APIError)
	return ok && apiErr.StatusCode == code
}
