package server

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"nimbus/internal/telemetry"
)

// Middleware: the broker daemon fronts real buyers, so every request is
// access-logged, measured, and handler panics become 500s instead of
// dropped connections.

// statusRecorder captures the response code for the access log and the
// request metrics, and the route pattern that served the request: a
// Server's handle sets route before calling the route's handler, so it
// stays empty for requests no registered route served (mux 404s and 405s,
// path-cleaning redirects) and under handlers that are not a Server.
type statusRecorder struct {
	http.ResponseWriter
	status int
	route  string
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController
// (SetReadDeadline, EnableFullDuplex, ...).
func (r *statusRecorder) Unwrap() http.ResponseWriter {
	return r.ResponseWriter
}

// WithMiddleware wraps a handler with panic recovery, access logging and —
// when reg is non-nil — request telemetry: per-route request counts by
// status class, an in-flight gauge, and per-route latency histograms. The
// broker daemon applies it to the whole API; it is exported so other
// embedders can reuse it. Routes are labelled when h is a Server: each
// request is counted under the pattern of the route that served it (HEAD
// requests under their GET pattern, the root redirect under "GET /{$}"),
// and everything else under "(other)", so the label set is the registered
// patterns however many paths scanners probe.
func WithMiddleware(h http.Handler, logf func(format string, args ...any), reg *telemetry.Registry) http.Handler {
	reg.Help("nimbus_http_requests_total", "HTTP requests by route pattern and status class.")
	reg.Help("nimbus_http_request_seconds", "HTTP request latency by route pattern.")
	reg.Help("nimbus_http_inflight", "HTTP requests currently being served.")
	reg.Help("nimbus_http_panics_total", "Handler panics recovered by the middleware.")
	inflight := reg.Gauge("nimbus_http_inflight")
	panics := reg.Counter("nimbus_http_panics_total")
	// Metric handles are resolved once per route label and cached, so the
	// registry's key building stays out of the per-request path.
	var routes sync.Map // route label → *routeStats
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				panics.Inc()
				logf("nimbus: panic serving %s %s: %v", r.Method, r.URL.Path, p)
				if rec.status == 0 {
					writeJSON(rec, http.StatusInternalServerError, ErrorResponse{
						Error: fmt.Sprintf("internal error: %v", p),
					})
				}
			}
			elapsed := time.Since(start)
			inflight.Add(-1)
			if reg != nil {
				rs := routeStatsFor(&routes, reg, rec.route)
				rs.class(rec.status).Inc()
				rs.latency.Observe(elapsed.Seconds())
			}
			logf("nimbus: %s %s -> %d (%s)", r.Method, r.URL.Path, rec.status, elapsed.Round(time.Microsecond))
		}()
		h.ServeHTTP(rec, r)
	})
}

// routeStats caches one route's metric handles: a counter per status class
// and the latency histogram.
type routeStats struct {
	classes [6]*telemetry.Counter // index status/100 (1xx..5xx); 0 = other
	latency *telemetry.Histogram
}

// class picks the status-class counter.
func (rs *routeStats) class(status int) *telemetry.Counter {
	if status < 100 || status > 599 {
		return rs.classes[0]
	}
	return rs.classes[status/100]
}

// routeStatsFor returns the cached handles for route, a pattern a Server
// registered or "" for a request no registered route served.
func routeStatsFor(routes *sync.Map, reg *telemetry.Registry, route string) *routeStats {
	if route == "" {
		route = "(other)"
	}
	if rs, ok := routes.Load(route); ok {
		return rs.(*routeStats)
	}
	//lint:ignore telemetry-label-literal route is a pattern a Server registered through handle, or "(other)", so the label set is the fixed route table
	rs := &routeStats{latency: reg.Histogram("nimbus_http_request_seconds", nil, "route", route)}
	for i, class := range [...]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"} {
		//lint:ignore telemetry-label-literal route is a pattern a Server registered through handle, or "(other)", so the label set is the fixed route table
		rs.classes[i] = reg.Counter("nimbus_http_requests_total", "route", route, "class", class)
	}
	// A racing first request builds the same registry handles; either
	// copy may be kept.
	actual, _ := routes.LoadOrStore(route, rs)
	return actual.(*routeStats)
}
