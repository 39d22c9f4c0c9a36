package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"nimbus/internal/journal"
	"nimbus/internal/registry"
	"nimbus/internal/server"
)

// startBroker serves a memory-only registry with one small regression
// market and returns its URL and offering name.
func startBroker(t *testing.T) (string, string) {
	t.Helper()
	r, err := registry.Open(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	m, err := r.List(registry.Spec{
		ID: "casp", Generator: "CASP", Rows: 200, Grid: 8, Samples: 30, Seed: 71, ValueScale: 60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewMulti(r, server.WithLogger(func(string, ...any) {})))
	t.Cleanup(srv.Close)
	return srv.URL, m.Broker.Menu()[0]
}

func TestCLICommands(t *testing.T) {
	addr, offering := startBroker(t)

	if err := run(addr, []string{"menu"}); err != nil {
		t.Fatalf("menu: %v", err)
	}
	if err := run(addr, []string{"stats"}); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := run(addr, []string{"statement"}); err != nil {
		t.Fatalf("statement: %v", err)
	}
	if err := run(addr, []string{"curve", "-offering", offering, "-loss", "squared"}); err != nil {
		t.Fatalf("curve: %v", err)
	}
	if err := run(addr, []string{"buy", "-offering", offering, "-loss", "squared", "-option", "quality", "-value", "3"}); err != nil {
		t.Fatalf("buy: %v", err)
	}
}

// TestCLIDatasetCommands walks a seller's lifecycle against a multi-tenant
// daemon: list a CSV dataset, browse the marketplace, delist it.
func TestCLIDatasetCommands(t *testing.T) {
	r, err := registry.Open(registry.Config{Commission: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	srv := httptest.NewServer(server.NewMulti(r, server.WithLogger(func(string, ...any) {})))
	t.Cleanup(srv.Close)

	csvPath := filepath.Join(t.TempDir(), "houses.csv")
	var buf []byte
	buf = append(buf, "sqft,age,price\n"...)
	for i := 0; i < 120; i++ {
		buf = append(buf, fmt.Sprintf("%d,%d,%d\n", 800+7*i, i%40, 50000+93*i)...)
	}
	if err := os.WriteFile(csvPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run(srv.URL, []string{"list-dataset",
		"-id", "acme-houses", "-owner", "acme",
		"-csv", csvPath, "-task", "regression", "-target", "price",
		"-grid", "8", "-seed", "5"}); err != nil {
		t.Fatalf("list-dataset: %v", err)
	}
	if err := run(srv.URL, []string{"datasets"}); err != nil {
		t.Fatalf("datasets: %v", err)
	}
	if err := run(srv.URL, []string{"buy", "-offering", "acme-houses/linear-regression",
		"-loss", "squared", "-option", "quality", "-value", "2"}); err != nil {
		t.Fatalf("buy from listed dataset: %v", err)
	}
	if err := run(srv.URL, []string{"delist-dataset", "-id", "acme-houses"}); err != nil {
		t.Fatalf("delist-dataset: %v", err)
	}
	if r.Count() != 0 {
		t.Fatalf("market still live after delist: %d", r.Count())
	}

	// Flag validation and server-side failures surface as errors.
	for i, args := range [][]string{
		{"list-dataset"}, // missing -id
		{"list-dataset", "-id", "x", "-csv", filepath.Join(t.TempDir(), "missing.csv")}, // unreadable file
		{"delist-dataset"},                       // missing -id
		{"delist-dataset", "-id", "acme-houses"}, // already gone -> 404
	} {
		if err := run(srv.URL, args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestCLIJournalVerify(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Healthy journal: verify succeeds, in both text and JSON form.
	if err := run("http://unused", []string{"journal", "verify", "-dir", dir}); err != nil {
		t.Fatalf("verify clean journal: %v", err)
	}
	if err := run("http://unused", []string{"journal", "verify", "-dir", dir, "-json"}); err != nil {
		t.Fatalf("verify -json: %v", err)
	}

	// Corrupt a payload byte mid-stream: verify must exit non-zero.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[9] ^= 0xff
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("http://unused", []string{"journal", "verify", "-dir", dir}); err == nil {
		t.Fatal("verify accepted a corrupt journal")
	}

	// Missing flags.
	if err := run("http://unused", []string{"journal"}); err == nil {
		t.Fatal("journal without subcommand accepted")
	}
	if err := run("http://unused", []string{"journal", "verify"}); err == nil {
		t.Fatal("journal verify without -dir accepted")
	}
}

func TestCLIErrors(t *testing.T) {
	addr, offering := startBroker(t)
	cases := [][]string{
		{},                               // no command
		{"teleport"},                     // unknown command
		{"curve"},                        // missing flags
		{"curve", "-offering", offering}, // missing loss
		{"buy"},                          // missing flags
		{"buy", "-offering", offering, "-loss", "squared", "-option", "error-budget", "-value", "0"}, // unattainable
		{"buy", "-offering", "ghost", "-loss", "squared", "-option", "quality", "-value", "1"},       // 404
	}
	for i, args := range cases {
		if err := run(addr, args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}
