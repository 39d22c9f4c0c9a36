package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"nimbus/internal/telemetry"
)

// BenchmarkServerBuy is the serving baseline for the BENCH trajectory:
// end-to-end POST /api/v1/buy through the full middleware + rate-limiter
// stack against an httptest server, with concurrent buyers. The two
// sub-benchmarks bound the telemetry overhead — "telemetry" runs a live
// registry, "noop" a nil one — and must stay within a few percent of each
// other (the acceptance bar is <5%). "handler" is the server's own share:
// a tenant buy through ServeHTTP with no sockets and no client, so its
// allocs/op count only the middleware, the mux, the handler and the
// httptest request and recorder.
func BenchmarkServerBuy(b *testing.B) {
	for _, tc := range []struct {
		name string
		reg  *telemetry.Registry
	}{
		{"telemetry", telemetry.NewRegistry()},
		{"noop", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			srv, name := newInstrumentedServer(b, tc.reg, 0) // no rate limit: measure the buy path
			body := []byte(fmt.Sprintf(`{"offering":%q,"loss":"squared","option":"quality","value":5}`, name))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// One client per goroutine so connection reuse, not pool
				// contention, is what's measured.
				client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
				for pb.Next() {
					resp, err := client.Post(srv.URL+"/api/v1/buy", "application/json", bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := io.Copy(io.Discard, resp.Body); err != nil {
						b.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
			})
		})
	}
	b.Run("handler", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		r, m := listTestMarket(b, reg)
		quiet := func(string, ...any) {}
		h := WithMiddleware(NewMulti(r, WithLogger(quiet), WithTelemetry(reg)), quiet, reg)
		path := "/api/v1/datasets/" + m.ID + "/buy"
		body := []byte(fmt.Sprintf(`{"offering":%q,"loss":"squared","option":"quality","value":5}`, m.Broker.Menu()[0]))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
	})
}
