package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nimbus/internal/journal"
	"nimbus/internal/registry"
)

// TestNoRouteServesStoredOptimal lists tenants on a durable registry, so
// each has a manifest.json holding its h*, then GETs every route and buys
// through every buy route with each purchase option — before a restart
// and after the tenants are recovered from their manifests. No response
// body may carry an "optimal" key or any stored h* weight in its
// full-precision JSON form: the manifest is broker-private, and a buyer
// only ever receives h* plus noise.
func TestNoRouteServesStoredOptimal(t *testing.T) {
	root := t.TempDir()
	specs := []registry.Spec{
		cheapListRequest("casp", 3).Spec,
		{ID: "auto", Generator: "Simulated2", Model: "auto", Rows: 150, Grid: 8, Samples: 24, Seed: 9},
	}
	open := func() (*registry.Registry, *httptest.Server) {
		t.Helper()
		r, err := registry.Open(registry.Config{Root: root, Commission: 0.1, Sync: journal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return r, httptest.NewServer(NewMulti(r, WithLogger(func(string, ...any) {})))
	}

	r, srv := open()
	var bodies []string
	for _, spec := range specs {
		body, err := json.Marshal(ListDatasetRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, serve(t, srv, http.MethodPost, "/api/v1/datasets", "application/json", string(body)))
	}
	weights := storedWeights(t, root, specs)
	requireNoOptimal(t, weights, bodies)
	requireNoOptimal(t, weights, browseAndBuy(t, srv, r))
	srv.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r, srv = open()
	defer r.Close()
	defer srv.Close()
	if r.Count() != len(specs) {
		t.Fatalf("recovered %d tenants, want %d", r.Count(), len(specs))
	}
	requireNoOptimal(t, weights, browseAndBuy(t, srv, r))
}

// storedWeights reads every tenant's stored h* from its manifest, each
// weight in the exact text the manifest holds.
func storedWeights(t *testing.T, root string, specs []registry.Spec) []string {
	t.Helper()
	var weights []string
	for _, spec := range specs {
		data, err := os.ReadFile(filepath.Join(root, spec.ID, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var m struct {
			Optimal []json.Number `json:"optimal"`
		}
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		if len(m.Optimal) == 0 {
			t.Fatalf("%s: manifest stores no h*", spec.ID)
		}
		for _, w := range m.Optimal {
			// A fitted weight prints with ~17 significant digits, so
			// finding its text inside another number is not a match by
			// chance; a short one would make the check meaningless.
			if len(w) < 10 {
				t.Fatalf("%s: stored weight %s is too short to search for", spec.ID, w)
			}
			weights = append(weights, w.String())
		}
	}
	return weights
}

// browseAndBuy GETs every route — union and tenant-scoped, JSON, metrics
// and UI — and buys through every buy route with each option, returning
// the response bodies.
func browseAndBuy(t *testing.T, srv *httptest.Server, r *registry.Registry) []string {
	t.Helper()
	get := func(path string) string { return serve(t, srv, http.MethodGet, path, "", "") }
	bodies := []string{
		get("/healthz"), get("/metrics"), get("/api/v1/metrics"), get("/api/v1/offerings"),
		get("/api/v1/menu"), get("/api/v1/stats"), get("/api/v1/statement"), get("/api/v1/datasets"),
		get("/"), get("/ui"),
	}
	for _, m := range r.Markets() {
		tenant := "/api/v1/datasets/" + m.ID
		bodies = append(bodies, get(tenant), get(tenant+"/menu"), get(tenant+"/stats"), get(tenant+"/statement"))
		for _, name := range m.Broker.Menu() {
			o, err := m.Broker.Offering(name)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, get("/ui/offering?name="+url.QueryEscape(name)))
			for _, loss := range o.LossNames() {
				q := "?offering=" + url.QueryEscape(name) + "&loss=" + url.QueryEscape(loss)
				bodies = append(bodies, get("/api/v1/curve"+q), get(tenant+"/curve"+q))
				for _, buy := range []BuyRequest{
					{Offering: name, Loss: loss, Option: "quality", Value: o.PriceFunc.Points()[0].X},
					{Offering: name, Loss: loss, Option: "error-budget", Value: 1e9},
					{Offering: name, Loss: loss, Option: "price-budget", Value: 1e9},
				} {
					body, err := json.Marshal(buy)
					if err != nil {
						t.Fatal(err)
					}
					form := url.Values{"offering": {buy.Offering}, "loss": {buy.Loss}, "option": {buy.Option},
						"value": {fmt.Sprint(buy.Value)}}.Encode()
					bodies = append(bodies,
						serve(t, srv, http.MethodPost, "/api/v1/buy", "application/json", string(body)),
						serve(t, srv, http.MethodPost, tenant+"/buy", "application/json", string(body)),
						serve(t, srv, http.MethodPost, "/ui/buy", "application/x-www-form-urlencoded", form))
				}
			}
		}
	}
	return bodies
}

// serve sends one request and returns the body, failing on a non-2xx
// answer so every route checked really served its content.
func serve(t *testing.T, srv *httptest.Server, method, path, contentType, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, data)
	}
	return string(data)
}

// requireNoOptimal fails if any body carries an "optimal" key or one of
// the stored h* weights.
func requireNoOptimal(t *testing.T, weights, bodies []string) {
	t.Helper()
	for _, body := range bodies {
		if strings.Contains(body, `"optimal"`) {
			t.Fatalf("a response carries an \"optimal\" key: %.300s", body)
		}
		for _, w := range weights {
			if strings.Contains(body, w) {
				t.Fatalf("a response carries the stored h* weight %s: %.300s", w, body)
			}
		}
	}
}
