package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nimbus/internal/loadgen"
	"nimbus/internal/registry"
	"nimbus/internal/server"
)

// The traffic core's behaviour (pacing, determinism, error accounting) is
// tested in internal/loadgen; these tests cover the CLI shell — option
// plumbing and the two report renderings.

// newBrokerServer serves a memory-only registry with one small regression
// market behind the full production middleware, mirroring nimbusd's
// wiring.
func newBrokerServer(t *testing.T) *httptest.Server {
	t.Helper()
	r, err := registry.Open(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if _, err := r.List(registry.Spec{
		ID: "casp", Generator: "CASP", Rows: 200, Grid: 12, Samples: 40, Seed: 11, ValueScale: 60,
	}, nil); err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}
	handler := server.NewMulti(r, server.WithLogger(quiet))
	srv := httptest.NewServer(server.WithMiddleware(handler, quiet, nil))
	t.Cleanup(srv.Close)
	return srv
}

func baseOptions(url string) options {
	return options{
		Config: loadgen.Config{
			Concurrency: 2,
			Count:       30,
			Seed:        7,
		},
		BaseURL: url,
		Timeout: 10 * time.Second,
		Format:  "text",
	}
}

// TestRunTextReport checks the default rendering carries the headline
// numbers.
func TestRunTextReport(t *testing.T) {
	srv := newBrokerServer(t)
	var out bytes.Buffer
	if err := run(context.Background(), &out, baseOptions(srv.URL)); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"requests", "errors", "revenue", "latency", "p95"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

// TestRunJSONReport checks -format json emits the plain loadgen report.
func TestRunJSONReport(t *testing.T) {
	srv := newBrokerServer(t)
	opt := baseOptions(srv.URL)
	opt.Format = "json"
	var out bytes.Buffer
	if err := run(context.Background(), &out, opt); err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Requests != 30 || rep.Errors != 0 {
		t.Errorf("requests=%d errors=%d, want 30 and 0", rep.Requests, rep.Errors)
	}
}

// TestRunRejectsBadOptions covers the CLI validation paths.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*options)
	}{
		{"bad format", func(o *options) { o.Format = "xml" }},
		{"no concurrency", func(o *options) { o.Concurrency = 0 }},
		{"no bound", func(o *options) { o.Count = 0; o.Duration = 0 }},
		{"negative rate", func(o *options) { o.Rate = -5 }},
	} {
		opt := baseOptions("http://127.0.0.1:0")
		tc.mutate(&opt)
		if err := run(context.Background(), &bytes.Buffer{}, opt); err == nil {
			t.Errorf("%s: run accepted invalid options", tc.name)
		}
	}
}
