package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// FuzzBuyRequest posts arbitrary bytes to a tenant's buy route. Whatever
// the body, the handler must not panic (the middleware would turn that
// into a 500), must answer with one of the statuses the API documents for
// a buy, and must record a sale exactly when it answers 200.
func FuzzBuyRequest(f *testing.F) {
	srv, _, _ := newMultiServer(f)
	c := NewClient(srv.URL)
	ctx := context.Background()
	if _, err := c.ListDataset(ctx, cheapListRequest("acme", 7)); err != nil {
		f.Fatal(err)
	}
	acme := c.Tenant("acme")
	buyURL := srv.URL + acme.route("buy")
	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusNotFound:              true,
		http.StatusConflict:              true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusUnprocessableEntity:   true,
		http.StatusTooManyRequests:       true,
	}

	for _, seed := range []string{
		`{"offering":"acme/linear-regression","loss":"squared","option":"quality","value":2}`,
		`{"offering":"acme/linear-regression","loss":"squared","option":"error-budget","value":0.5}`,
		`{"offering":"acme/linear-regression","loss":"squared","option":"price-budget","value":1e9}`,
		`{"offering":"acme/linear-regression","loss":"squared","option":"price-budget","value":0}`,
		`{"offering":"acme/linear-regression","loss":"hinge","option":"quality","value":-1}`,
		`{"offering":"other/linear-regression","loss":"squared","option":"quality","value":2}`,
		`{"offering":"acme/linear-regression","extra":1}`,
		`{"offering":"acme/linear-regression"}{"offering":"x"}`,
		`{"value":1e400}`,
		`[]`,
		`null`,
		``,
		`{"offering":"` + strings.Repeat("a", maxBuyBody) + `"}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		before, err := acme.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(buyURL, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !allowed[resp.StatusCode] {
			t.Fatalf("status %d for body %q: %s", resp.StatusCode, body, reply)
		}
		after, err := acme.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := before.Sales
		if resp.StatusCode == http.StatusOK {
			want++
		}
		if after.Sales != want {
			t.Fatalf("status %d moved sales %d → %d, want %d", resp.StatusCode, before.Sales, after.Sales, want)
		}
	})
}

// FuzzUIBuy posts arbitrary option and value strings to the dashboard's
// buy form for a listed offering. Whatever they are, no response may be a
// 500, and the tenant's sale count must rise by one exactly when the page
// reports a sale.
func FuzzUIBuy(f *testing.F) {
	srv, _, _ := newMultiServer(f)
	c := NewClient(srv.URL)
	ctx := context.Background()
	if _, err := c.ListDataset(ctx, cheapListRequest("acme", 7)); err != nil {
		f.Fatal(err)
	}
	acme := c.Tenant("acme")
	for _, seed := range [][2]string{
		{"quality", "2"},
		{"error-budget", "0.5"},
		{"price-budget", "1e9"},
		{"price-budget", "0"},
		{"quality", "NaN"},
		{"error-budget", "+Inf"},
		{"price-budget", "-inf"},
		{"quality", "1e400"},
		{"quality", "0x1p-3"},
		{"bogus", "1"},
		{"", ""},
	} {
		f.Add(seed[0], seed[1])
	}

	f.Fuzz(func(t *testing.T, option, value string) {
		before, err := acme.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		code, body := postUIBuy(t, srv.URL, "acme/linear-regression", option, value)
		if code == http.StatusInternalServerError {
			t.Fatalf("option %q value %q: 500: %s", option, value, body)
		}
		after, err := acme.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := before.Sales
		if strings.Contains(body, uiSold) {
			want++
		}
		if after.Sales != want {
			t.Fatalf("option %q value %q: status %d moved sales %d → %d, want %d", option, value, code, before.Sales, after.Sales, want)
		}
	})
}

// FuzzRouteLabels sends an arbitrary method and path through the full
// stack. However the mux answers, every request series must be labelled
// "(other)" or a pattern the Server registered (the routes table), so no
// request can mint a label.
func FuzzRouteLabels(f *testing.F) {
	srv, _, reg := newMultiServer(f)
	allowed := map[string]bool{"(other)": true}
	for _, rt := range routes {
		allowed[rt.pattern] = true
		f.Add(rt.method, rt.path)
	}
	for _, seed := range [][2]string{
		{"PUT", "/api/v1/menu"},
		{"GET", "/api/v1/datasets/x/buy"},
		{"GET", "/wp-admin/setup.php"},
		{"HEAD", "/healthz"},
		{"OPTIONS", "/api/v1/../healthz"},
		{"BREW", "/api/v1/datasets/{id}/menu"},
		{"GET", "/api/v1/datasets/a%2Fb/menu"},
	} {
		f.Add(seed[0], seed[1])
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}

	f.Fuzz(func(t *testing.T, method, path string) {
		req, err := http.NewRequest(method, srv.URL, nil)
		if err != nil {
			t.Skip("method the client rejects")
		}
		req.URL.Path = "/" + strings.TrimPrefix(path, "/")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for label := range routeLabels(reg.Snapshot()) {
			if !allowed[label] {
				t.Fatalf("%s %q minted route label %q", method, path, label)
			}
		}
	})
}
