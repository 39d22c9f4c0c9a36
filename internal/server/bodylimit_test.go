package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"nimbus/internal/registry"
)

// spaceReader yields n spaces: JSON whitespace that pads a request body
// to an exact size without holding the body in memory.
type spaceReader struct{ n int64 }

func (r *spaceReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = ' '
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// paddedBody renders v as a JSON object padded with whitespace before its
// closing brace to exactly size bytes, so the padding is still valid JSON.
func paddedBody(t *testing.T, v any, size int64) io.Reader {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	end := len(js) - 1
	return io.MultiReader(bytes.NewReader(js[:end]), &spaceReader{n: size - int64(len(js))}, bytes.NewReader(js[end:]))
}

// post serves one POST in process, so an oversized body is refused by the
// handler rather than by a transport racing the server's early reply.
func post(h http.Handler, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

func TestBuyBodyCap(t *testing.T) {
	srv, broker, name := newTestServer(t)
	req := BuyRequest{Offering: name, Loss: "squared", Option: "quality", Value: 2}
	if rec := post(srv.Config.Handler, "/api/v1/buy", paddedBody(t, req, maxBuyBody)); rec.Code != http.StatusOK {
		t.Fatalf("buy body at the cap: %d %s", rec.Code, rec.Body)
	}
	rec := post(srv.Config.Handler, "/api/v1/buy", paddedBody(t, req, maxBuyBody+1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("buy body one byte over the cap: %d %s", rec.Code, rec.Body)
	}
	if n := broker.SaleCount(); n != 1 {
		t.Fatalf("ledger has %d sales, want only the one under the cap", n)
	}
}

// TestUIBuyFormCap posts /ui/buy forms padded to exactly the buy cap and
// one byte past it: the first sells, the second is refused with 413
// before any sale.
func TestUIBuyFormCap(t *testing.T) {
	srv, broker, name := newTestServer(t)
	form := url.Values{"offering": {name}, "loss": {"squared"}, "option": {"quality"}, "value": {"2"}}.Encode()
	postForm := func(size int) *httptest.ResponseRecorder {
		body := form + "&pad=" + strings.Repeat("x", size-len(form)-len("&pad="))
		req := httptest.NewRequest(http.MethodPost, "/ui/buy", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		srv.Config.Handler.ServeHTTP(rec, req)
		return rec
	}
	if rec := postForm(maxBuyBody); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "sold at") {
		t.Fatalf("form at the cap: %d %s", rec.Code, rec.Body)
	}
	if rec := postForm(maxBuyBody + 1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("form one byte over the cap: %d %s", rec.Code, rec.Body)
	}
	if n := broker.SaleCount(); n != 1 {
		t.Fatalf("ledger has %d sales, want only the one under the cap", n)
	}
}

func TestListBodyOverCapIsRefused(t *testing.T) {
	srv, r, _ := newMultiServer(t)
	rec := post(srv.Config.Handler, "/api/v1/datasets", paddedBody(t, cheapListRequest("toobig", 3), maxListBody+1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("listing one byte over the cap: %d %s", rec.Code, rec.Body)
	}
	if ms := r.Markets(); len(ms) != 0 {
		t.Fatalf("refused listing left %d markets in the registry", len(ms))
	}
}

// TestCSVListingUnderCap lists a CSV upload the size nimbusbench sends
// (500 rows × 8 features, tens of KB), far below the listing cap.
func TestCSVListingUnderCap(t *testing.T) {
	srv, r, _ := newMultiServer(t)
	var csv strings.Builder
	csv.WriteString("x1,x2,x3,x4,x5,x6,x7,x8,y\n")
	for i := 0; i < 500; i++ {
		y := 0.0
		for j := 1; j <= 8; j++ {
			x := float64((i*j)%17) / 17
			y += float64(j) * x
			fmt.Fprintf(&csv, "%.4f,", x)
		}
		fmt.Fprintf(&csv, "%.4f\n", y)
	}
	req := ListDatasetRequest{
		Spec: registry.Spec{ID: "upload", Owner: "seller-upload", CSV: true, Task: "regression", Target: "y", Grid: 8, Seed: 5},
		Data: csv.String(),
	}
	created, err := NewClient(srv.URL).ListDataset(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if created.Spec.ID != "upload" || len(created.Offerings) == 0 {
		t.Fatalf("created %+v", created)
	}
	if ms := r.Markets(); len(ms) != 1 {
		t.Fatalf("registry holds %d markets, want 1", len(ms))
	}
}
