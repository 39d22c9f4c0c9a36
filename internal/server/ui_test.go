package server

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

func getBody(t *testing.T, rawURL string) (int, string) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestUIMenuPage(t *testing.T) {
	srv, _, name := newTestServer(t)
	code, body := getBody(t, srv.URL+"/ui")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"Nimbus", name, "linear-regression", "squared", "expected revenue"} {
		if !strings.Contains(body, want) {
			t.Fatalf("menu page missing %q:\n%s", want, body[:min(400, len(body))])
		}
	}
	// Root redirects to the dashboard.
	code, _ = getBody(t, srv.URL+"/")
	if code != http.StatusOK { // after following the redirect
		t.Fatalf("root status %d", code)
	}
}

func TestUIOfferingPage(t *testing.T) {
	srv, _, name := newTestServer(t)
	code, body := getBody(t, srv.URL+"/ui/offering?name="+url.QueryEscape(name))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"price–error curve", "quality 1/NCP", "Buy a version", "price-budget"} {
		if !strings.Contains(body, want) {
			t.Fatalf("offering page missing %q", want)
		}
	}
	// The curve table is trimmed to at most 12 rows.
	if rows := strings.Count(body, "<tr><td>"); rows > 13 {
		t.Fatalf("curve table too long: %d rows", rows)
	}
	code, _ = getBody(t, srv.URL+"/ui/offering?name=ghost")
	if code != http.StatusNotFound {
		t.Fatalf("ghost offering status %d", code)
	}
}

func TestUIBuyFlow(t *testing.T) {
	srv, broker, name := newTestServer(t)
	form := url.Values{
		"offering": {name},
		"loss":     {"squared"},
		"option":   {"quality"},
		"value":    {"5"},
	}
	resp, err := http.PostForm(srv.URL+"/ui/buy", form)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "sold at") || !strings.Contains(string(body), "coefficients") {
		t.Fatalf("buy page missing receipt:\n%s", string(body)[:min(500, len(body))])
	}
	if n := broker.SaleCount(); n != 1 {
		t.Fatalf("ledger has %d sales", n)
	}

	// Failed purchases render an error message, not a 500.
	form.Set("option", "price-budget")
	form.Set("value", "0")
	resp, err = http.PostForm(srv.URL+"/ui/buy", form)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "err") {
		t.Fatalf("error purchase: status %d", resp.StatusCode)
	}
	// Bad numeric value.
	form.Set("value", "banana")
	resp, err = http.PostForm(srv.URL+"/ui/buy", form)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "bad value") {
		t.Fatal("bad value not reported")
	}
	// Unknown offering.
	form.Set("offering", "ghost")
	resp, err = http.PostForm(srv.URL+"/ui/buy", form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost buy status %d", resp.StatusCode)
	}
}

// uiSold is how the buy page reports a sale; an error message echoing
// "sold at" renders under class "err".
const uiSold = `<p class="ok">sold at `

// postUIBuy submits the dashboard's buy form for offering under the
// squared loss and returns the status and page.
func postUIBuy(t *testing.T, base, offering, option, value string) (int, string) {
	t.Helper()
	resp, err := http.PostForm(base+"/ui/buy", url.Values{
		"offering": {offering},
		"loss":     {"squared"},
		"option":   {option},
		"value":    {value},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestUIBuyRefusesNonFiniteValue posts NaN and ±Inf, which
// strconv.ParseFloat accepts, under every purchase option: each renders a
// refusal, sells nothing and trips no handler panic.
func TestUIBuyRefusesNonFiniteValue(t *testing.T) {
	srv, r, reg := newMultiServer(t)
	if _, err := NewClient(srv.URL).ListDataset(context.Background(), cheapListRequest("acme", 7)); err != nil {
		t.Fatal(err)
	}
	for _, option := range []string{"quality", "error-budget", "price-budget"} {
		for _, value := range []string{"NaN", "nan", "+Inf", "Inf", "-Inf", "-infinity"} {
			code, body := postUIBuy(t, srv.URL, "acme/linear-regression", option, value)
			if code != http.StatusOK || strings.Contains(body, uiSold) || !strings.Contains(body, "not finite") {
				t.Errorf("%s %s: status %d, page %s", option, value, code, body[:min(300, len(body))])
			}
		}
	}
	m, err := r.Get("acme")
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Broker.SaleCount(); n != 0 {
		t.Fatalf("books hold %d sales after non-finite purchases", n)
	}
	if got := reg.Snapshot().CounterValue("nimbus_http_panics_total"); got != 0 {
		t.Fatalf("%v handler panics", got)
	}
}
