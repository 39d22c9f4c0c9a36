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
