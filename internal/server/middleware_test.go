package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"nimbus/internal/telemetry"
)

func TestMiddlewareLogsRequests(t *testing.T) {
	var logs []string
	logf := func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	srv := httptest.NewServer(WithMiddleware(inner, logf, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/brew")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "GET /brew -> 418") {
		t.Fatalf("logs %v", logs)
	}
}

func TestMiddlewareRecoversPanics(t *testing.T) {
	var logs []string
	logf := func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	inner := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	srv := httptest.NewServer(WithMiddleware(inner, logf, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "panic serving GET /boom: kaboom") {
		t.Fatalf("logs %v", logs)
	}
}

func TestStatusRecorderUnwrap(t *testing.T) {
	under := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: under}
	if rec.Unwrap() != http.ResponseWriter(under) {
		t.Fatal("Unwrap does not expose the underlying writer")
	}
}

func TestMiddlewareRecordsTelemetry(t *testing.T) {
	srv, _, reg := newMultiServer(t)

	// Two hits on a served route, one scanner probe on an unknown path.
	for _, path := range []string{"/healthz", "/healthz", "/wp-admin/setup.php"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("nimbus_http_requests_total", "route", "GET /healthz", "class", "2xx"); got != 2 {
		t.Fatalf("2xx count %v; series %v", got, snap.SeriesNames())
	}
	// Unknown paths collapse into one bounded-cardinality series.
	if got := snap.CounterValue("nimbus_http_requests_total", "route", "(other)", "class", "4xx"); got != 1 {
		t.Fatalf("(other) 4xx count %v; series %v", got, snap.SeriesNames())
	}
	h, ok := snap.HistogramValue("nimbus_http_request_seconds", "route", "GET /healthz")
	if !ok || h.Count != 2 || h.Sum <= 0 {
		t.Fatalf("latency histogram %+v ok=%v", h, ok)
	}
	if got := snap.GaugeValue("nimbus_http_inflight"); got != 0 {
		t.Fatalf("inflight settled at %v", got)
	}
}

// routes is every pattern NewMulti registers, each with one request that
// it serves. FuzzRouteLabels accepts these patterns and "(other)" as the
// only route labels.
var routes = []struct{ pattern, method, path string }{
	{"GET /healthz", "GET", "/healthz"},
	{"GET /metrics", "GET", "/metrics"},
	{"GET /api/v1/metrics", "GET", "/api/v1/metrics"},
	{"GET /api/v1/offerings", "GET", "/api/v1/offerings"},
	{"GET /api/v1/menu", "GET", "/api/v1/menu"},
	{"GET /api/v1/curve", "GET", "/api/v1/curve"},
	{"POST /api/v1/buy", "POST", "/api/v1/buy"},
	{"GET /api/v1/stats", "GET", "/api/v1/stats"},
	{"GET /api/v1/statement", "GET", "/api/v1/statement"},
	{"GET /api/v1/datasets/{id}/menu", "GET", "/api/v1/datasets/x/menu"},
	{"GET /api/v1/datasets/{id}/curve", "GET", "/api/v1/datasets/x/curve"},
	{"POST /api/v1/datasets/{id}/buy", "POST", "/api/v1/datasets/x/buy"},
	{"GET /api/v1/datasets/{id}/stats", "GET", "/api/v1/datasets/x/stats"},
	{"GET /api/v1/datasets/{id}/statement", "GET", "/api/v1/datasets/x/statement"},
	{"POST /api/v1/datasets", "POST", "/api/v1/datasets"},
	{"GET /api/v1/datasets", "GET", "/api/v1/datasets"},
	{"GET /api/v1/datasets/{id}", "GET", "/api/v1/datasets/x"},
	{"DELETE /api/v1/datasets/{id}", "DELETE", "/api/v1/datasets/x"},
	{"GET /ui", "GET", "/ui"},
	{"GET /{$}", "GET", "/"},
	{"GET /ui/offering", "GET", "/ui/offering"},
	{"POST /ui/buy", "POST", "/ui/buy"},
}

// routeLabelRE extracts the route label from a series key.
var routeLabelRE = regexp.MustCompile(`route="([^"]*)"`)

// routeLabels counts the nimbus_http_request* series per route label.
func routeLabels(snap telemetry.Snapshot) map[string]int {
	labels := make(map[string]int)
	for _, key := range snap.SeriesNames() {
		if !strings.HasPrefix(key, "nimbus_http_request") {
			continue
		}
		if m := routeLabelRE.FindStringSubmatch(key); m != nil {
			labels[m[1]]++
		} else {
			labels[key]++ // a series with no route label is itself a failure
		}
	}
	return labels
}

// TestRouteLabels: each request is counted under the pattern of the route
// that served it, and everything no route served under "(other)".
func TestRouteLabels(t *testing.T) {
	srv, _, reg := newMultiServer(t)
	want := make(map[string]float64) // requests per route label
	serve := func(method, path, label string) {
		srv.Config.Handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, nil))
		want[label]++
	}
	for _, rt := range routes {
		serve(rt.method, rt.path, rt.pattern)
	}
	serve(http.MethodHead, "/healthz", "GET /healthz")
	serve(http.MethodPut, "/api/v1/menu", "(other)")           // 405
	serve(http.MethodPatch, "/api/v1/menu", "(other)")         // 405
	serve(http.MethodDelete, "/api/v1/menu", "(other)")        // 405
	serve(http.MethodGet, "/api/v1/datasets/x/buy", "(other)") // 405
	serve(http.MethodGet, "/wp-admin/setup.php", "(other)")    // 404
	serve(http.MethodGet, "/api/v1/../healthz", "(other)")     // path-cleaning redirect

	snap := reg.Snapshot()
	for label, n := range want {
		var got float64
		for _, class := range []string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"} {
			got += snap.CounterValue("nimbus_http_requests_total", "route", label, "class", class)
		}
		if got != n {
			t.Errorf("route %q counted %v requests, want %v", label, got, n)
		}
	}
	labels := routeLabels(snap)
	for label := range want {
		if labels[label] != 7 { // six class counters and a histogram
			t.Errorf("route %q has %d series, want 7", label, labels[label])
		}
	}
	if len(labels) != len(want) {
		t.Errorf("route labels %v, want only the registered patterns and (other)", labels)
	}
	// nimbusbench reads the tenant buy's series under this exact label.
	if h, ok := snap.HistogramValue("nimbus_http_request_seconds", "route", "POST /api/v1/datasets/{id}/buy"); !ok || h.Count != 1 {
		t.Errorf("tenant buy latency %+v ok=%v", h, ok)
	}
}

func TestMiddlewareDefaultStatusIs200(t *testing.T) {
	var logs []string
	logf := func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok")) // implicit 200
	})
	srv := httptest.NewServer(WithMiddleware(inner, logf, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(logs) != 1 || !strings.Contains(logs[0], "-> 200") {
		t.Fatalf("logs %v", logs)
	}
}
