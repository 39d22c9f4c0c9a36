package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nimbus/internal/journal"
	"nimbus/internal/registry"
	"nimbus/internal/telemetry"
)

// newMultiServer serves an empty multi-tenant registry (memory-only) with
// the full middleware stack, mirroring how nimbusd assembles it.
func newMultiServer(t *testing.T, opts ...Option) (*httptest.Server, *registry.Registry, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	r, err := registry.Open(registry.Config{Commission: 0.1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	logf := func(string, ...any) {}
	opts = append([]Option{WithLogger(logf), WithTelemetry(reg)}, opts...)
	h := WithMiddleware(NewMulti(r, opts...), logf, reg)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, r, reg
}

// cheapListRequest is a small generator-backed listing for HTTP tests.
func cheapListRequest(id string, seed int64) ListDatasetRequest {
	return ListDatasetRequest{Spec: registry.Spec{
		ID:        id,
		Owner:     "seller-" + id,
		Generator: "CASP",
		Rows:      150,
		Grid:      8,
		Samples:   24,
		Seed:      seed,
	}}
}

func TestDatasetCRUDOverHTTP(t *testing.T) {
	srv, _, _ := newMultiServer(t)
	c := NewClient(srv.URL)
	ctx := context.Background()

	// Empty marketplace.
	ds, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Markets != 0 || len(ds.Datasets) != 0 {
		t.Fatalf("fresh marketplace %+v", ds)
	}

	// Create.
	created, err := c.ListDataset(ctx, cheapListRequest("acme", 7))
	if err != nil {
		t.Fatal(err)
	}
	offering := "acme/linear-regression"
	if !reflect.DeepEqual(created.Offerings, []string{offering}) {
		t.Fatalf("created %+v", created)
	}
	// Duplicate ID conflicts.
	if _, err := c.ListDataset(ctx, cheapListRequest("acme", 8)); !isStatus(err, http.StatusConflict) {
		t.Fatalf("duplicate list: %v", err)
	}
	// Bad spec is a 400.
	if _, err := c.ListDataset(ctx, cheapListRequest(".hidden", 9)); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("bad id: %v", err)
	}

	// Read: collection, detail, tenant-scoped browsing.
	ds, err = c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Markets != 1 || ds.Datasets[0].ID != "acme" || ds.Datasets[0].Owner != "seller-acme" {
		t.Fatalf("datasets %+v", ds)
	}
	detail, err := c.Dataset(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if detail.Spec.ID != "acme" || detail.Spec.Generator != "CASP" {
		t.Fatalf("detail %+v", detail)
	}
	menu, err := c.TenantMenu(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(menu.Offerings) != 1 || menu.Offerings[0].Name != offering {
		t.Fatalf("tenant menu %+v", menu)
	}
	curve, err := c.TenantCurve(ctx, "acme", offering, "squared")
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) == 0 {
		t.Fatal("empty curve")
	}

	// Buy inside the tenant, then via the untenanted union route.
	p, err := c.TenantBuy(ctx, "acme", BuyRequest{Offering: offering, Loss: "squared", Option: "quality", Value: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Price <= 0 {
		t.Fatalf("purchase %+v", p)
	}
	if _, err := c.Buy(ctx, BuyRequest{Offering: offering, Loss: "squared", Option: "quality", Value: 3}); err != nil {
		t.Fatal(err)
	}
	// The union menu and stats see the tenant.
	union, err := c.Menu(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(union.Offerings) != 1 || union.Offerings[0].Name != offering {
		t.Fatalf("union menu %+v", union)
	}
	stats, err := c.TenantStats(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sales != 2 {
		t.Fatalf("tenant stats %+v", stats)
	}
	global, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if global.Sales != 2 || global.TotalRevenue != stats.TotalRevenue {
		t.Fatalf("global stats %+v vs tenant %+v", global, stats)
	}
	st, err := c.TenantStatement(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if st.Sales != 2 || len(st.Lines) != 1 {
		t.Fatalf("tenant statement %+v", st)
	}

	// Delete: final statement comes back, then everything 404s.
	final, err := c.DelistDataset(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if final.Sales != 2 {
		t.Fatalf("final statement %+v", final)
	}
	if _, err := c.Dataset(ctx, "acme"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("detail after delist: %v", err)
	}
	if _, err := c.TenantBuy(ctx, "acme", BuyRequest{Offering: offering, Loss: "squared", Option: "quality", Value: 2}); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("tenant buy after delist: %v", err)
	}
	if _, err := c.Buy(ctx, BuyRequest{Offering: offering, Loss: "squared", Option: "quality", Value: 2}); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("union buy after delist: %v", err)
	}
	if _, err := c.DelistDataset(ctx, "acme"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("double delist: %v", err)
	}
}

func TestTenantIsolation(t *testing.T) {
	srv, r, reg := newMultiServer(t)
	c := NewClient(srv.URL)
	ctx := context.Background()
	for i, id := range []string{"north", "south"} {
		if _, err := c.ListDataset(ctx, cheapListRequest(id, int64(20+10*i))); err != nil {
			t.Fatal(err)
		}
	}
	// A tenant-scoped buy cannot reach another tenant's offering even with
	// a valid global name.
	if _, err := c.TenantBuy(ctx, "north", BuyRequest{Offering: "south/linear-regression", Loss: "squared", Option: "quality", Value: 2}); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("cross-tenant buy: %v", err)
	}
	// Sales land in the right market's books and telemetry.
	for i := 0; i < 3; i++ {
		if _, err := c.TenantBuy(ctx, "north", BuyRequest{Offering: "north/linear-regression", Loss: "squared", Option: "quality", Value: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.TenantBuy(ctx, "south", BuyRequest{Offering: "south/linear-regression", Loss: "squared", Option: "quality", Value: 2}); err != nil {
		t.Fatal(err)
	}
	north, _ := r.Get("north")
	south, _ := r.Get("south")
	if north.Broker.SaleCount() != 3 || south.Broker.SaleCount() != 1 {
		t.Fatalf("ledgers: north %d, south %d", north.Broker.SaleCount(), south.Broker.SaleCount())
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("nimbus_market_purchases_total", "market", "north"); got != 3 {
		t.Fatalf("north purchase counter %v", got)
	}
	if got := snap.CounterValue("nimbus_market_purchases_total", "market", "south"); got != 1 {
		t.Fatalf("south purchase counter %v", got)
	}
}

// TestTenantRateBudget checks that a tenant's purchase budget is one
// bucket shared by every buy route: the tenant-scoped JSON route, the
// untenanted union route and the dashboard form.
func TestTenantRateBudget(t *testing.T) {
	srv, _, reg := newMultiServer(t, WithTenantRate(1, 2))
	c := NewClient(srv.URL)
	ctx := context.Background()
	if _, err := c.ListDataset(ctx, cheapListRequest("busy", 31)); err != nil {
		t.Fatal(err)
	}
	req := BuyRequest{Offering: "busy/linear-regression", Loss: "squared", Option: "quality", Value: 2}
	tenantBuy := func() error {
		_, err := c.TenantBuy(ctx, "busy", req)
		return err
	}
	unionBuy := func() error {
		_, err := c.Buy(ctx, req)
		return err
	}
	uiBuy := func() error {
		resp, err := http.PostForm(srv.URL+"/ui/buy", url.Values{
			"offering": {req.Offering}, "loss": {req.Loss}, "option": {req.Option}, "value": {"2"},
		})
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return &APIError{StatusCode: resp.StatusCode}
		}
		return nil
	}
	// The union and dashboard buys spend the burst of 2; after that every
	// route is refused.
	for i, buy := range []func() error{unionBuy, uiBuy} {
		if err := buy(); err != nil {
			t.Fatalf("buy %d within the burst: %v", i, err)
		}
	}
	for i, buy := range []func() error{tenantBuy, unionBuy, uiBuy} {
		if err := buy(); !isStatus(err, http.StatusTooManyRequests) {
			t.Fatalf("buy %d past the burst: want 429, got %v", i, err)
		}
	}
	if got := reg.Snapshot().CounterValue("nimbus_market_throttled_total", "market", "busy"); got != 3 {
		t.Fatalf("throttle counter %v", got)
	}
	// The budget is per tenant, not global: an unknown tenant 404s before
	// touching the budget.
	if _, err := c.TenantBuy(ctx, "nobody", req); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown tenant: %v", err)
	}
}

// TestDelistServerFailureIs500: a delist that fails in the registry's own
// work (here archiving a tenant directory that vanished underneath it)
// is a server fault, not a bad request.
func TestDelistServerFailureIs500(t *testing.T) {
	root := t.TempDir()
	r, err := registry.Open(registry.Config{Root: root, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	srv := httptest.NewServer(NewMulti(r, WithLogger(func(string, ...any) {})))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	ctx := context.Background()
	if _, err := c.ListDataset(ctx, cheapListRequest("doomed", 41)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, "doomed")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DelistDataset(ctx, "doomed"); !isStatus(err, http.StatusInternalServerError) {
		t.Fatalf("delist of a vanished tenant dir: want 500, got %v", err)
	}
}
