package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nimbus/internal/journal"
	"nimbus/internal/registry"
)

// TestBuildBrokerListsAllSixDatasets: the boot path builds one market per
// Table 3 dataset, each selling the paper's model for it, every offering's
// curves meet their SLA, and progress is logged along the way.
func TestBuildBrokerListsAllSixDatasets(t *testing.T) {
	// Seeding lists the datasets concurrently, so the logger must be safe
	// for concurrent calls.
	var (
		mu   sync.Mutex
		logs []string
	)
	cfg := config{scale: 2e-4, seed: 7, gridN: 8, journalSync: "interval"}
	r, err := openRegistry(cfg, nil, func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, format)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	menu := r.Menu()
	if r.Count() != 6 || len(menu) != 6 {
		t.Fatalf("built %d markets, menu %v", r.Count(), menu)
	}
	for _, name := range menu {
		parts := strings.SplitN(name, "/", 2)
		if table3Models[parts[0]] != parts[1] {
			t.Fatalf("offering %s has unexpected model", name)
		}
		m, err := r.Get(parts[0])
		if err != nil {
			t.Fatal(err)
		}
		o, err := m.Broker.Offering(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.VerifySLA(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(logs) == 0 {
		t.Fatal("no progress logged")
	}
}

// TestSeedingIndependentOfGOMAXPROCS: the suite is listed concurrently,
// but every tenant's manifest (its spec and served error curves) is byte
// for byte what a single-threaded seeding writes.
func TestSeedingIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seed := func(procs int) string {
		runtime.GOMAXPROCS(procs)
		cfg := config{scale: 2e-4, seed: 7, gridN: 50, journalSync: "never", dataDir: t.TempDir()}
		r, err := openRegistry(cfg, nil, func(string, ...any) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg.dataDir
	}
	serial, parallel := seed(1), seed(4)
	for _, id := range registry.GeneratorNames() {
		want, err := os.ReadFile(filepath.Join(serial, id, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(parallel, id, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: manifest seeded under GOMAXPROCS 4 differs from the one seeded under 1", id)
		}
	}
}

// table3Models is the model each Table 3 dataset is sold with.
var table3Models = map[string]string{
	"Simulated1": "linear-regression",
	"YearMSD":    "linear-regression",
	"CASP":       "linear-regression",
	"Simulated2": "logistic-regression",
	"CovType":    "logistic-regression",
	"SUSY":       "logistic-regression",
}

// TestSeedSuiteListsAndRecovers drives the durable boot sequence:
// an empty data directory is seeded with the six Table 3 datasets, and a
// second boot recovers them from their manifests instead of re-seeding.
func TestSeedSuiteListsAndRecovers(t *testing.T) {
	root := t.TempDir()
	cfg := config{scale: 1e-9, seed: 3, gridN: 4}
	quiet := func(string, ...any) {}
	open := func() *registry.Registry {
		r, err := registry.Open(registry.Config{Root: root, Sync: journal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	r := open()
	if err := seedSuite(r, cfg, quiet); err != nil {
		t.Fatal(err)
	}
	if r.Count() != 6 || len(r.Menu()) != 6 {
		t.Fatalf("seeded %d markets, %d offerings", r.Count(), len(r.Menu()))
	}
	for _, name := range r.Menu() {
		parts := strings.SplitN(name, "/", 2)
		if table3Models[parts[0]] != parts[1] {
			t.Fatalf("offering %s has unexpected model", name)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Second boot: everything recovers, so openRegistry would skip seeding.
	r2 := open()
	defer r2.Close()
	if r2.Count() != 6 {
		t.Fatalf("recovered %d markets, want 6", r2.Count())
	}
}

// TestMemoryOnlyBoot: without -data-dir the registry lives in memory and
// is seeded with the Table 3 suite, so a bare nimbusd sells the same six
// offerings.
func TestMemoryOnlyBoot(t *testing.T) {
	cfg := config{scale: 1e-9, seed: 3, gridN: 4, journalSync: "interval"}
	r, err := openRegistry(cfg, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := []string{
		"CASP/linear-regression", "CovType/logistic-regression", "SUSY/logistic-regression",
		"Simulated1/linear-regression", "Simulated2/logistic-regression", "YearMSD/linear-regression",
	}
	if got := r.Menu(); !reflect.DeepEqual(got, want) {
		t.Fatalf("menu %v, want %v", got, want)
	}
}

// TestJournalSurvivesRestarts drives three generations of nimbusd's boot
// path on one data directory: a graceful shutdown compacts the journal
// into a snapshot, a crash (no Close) leaves later sales in the record
// tail, and the next startup recovers snapshot plus tail exactly.
func TestJournalSurvivesRestarts(t *testing.T) {
	cfg := config{
		scale:           1e-9,
		seed:            3,
		gridN:           4,
		commission:      0.1,
		journalSync:     "always",
		journalSyncEvry: time.Millisecond,
		journalSegBytes: 1024,
		dataDir:         t.TempDir(),
	}
	quiet := func(string, ...any) {}
	boot := func() (*registry.Registry, *registry.Market) {
		r, err := openRegistry(cfg, nil, quiet)
		if err != nil {
			t.Fatal(err)
		}
		if r.Count() != 6 {
			t.Fatalf("booted %d markets, want the 6 seeded ones", r.Count())
		}
		m, err := r.Get("Simulated1")
		if err != nil {
			t.Fatal(err)
		}
		return r, m
	}
	const offering, loss = "Simulated1/linear-regression", "squared"
	journalDir := filepath.Join(cfg.dataDir, "Simulated1", "journal")

	// Generation 1: seeds the suite, sells twice, shuts down gracefully.
	r1, m1 := boot()
	for i := 0; i < 2; i++ {
		if _, err := m1.Buy(offering, loss, "quality", 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(journalDir, "snap-*.snap")); len(snaps) == 0 {
		t.Fatal("graceful shutdown left no journal snapshot")
	}

	// Generation 2: recovers the snapshot, sells once more, then crashes —
	// the registry is abandoned without Close, so the sale survives only
	// as a record in the journal tail.
	_, m2 := boot()
	if got := m2.Broker.SaleCount(); got != 2 {
		t.Fatalf("generation 2 recovered %d sales, want 2", got)
	}
	if _, err := m2.Buy(offering, loss, "quality", 3); err != nil {
		t.Fatal(err)
	}
	wantBooks, wantRevenue := m2.Broker.Statement(), m2.Broker.TotalRevenue()

	// Generation 3: snapshot (2 sales) + tail replay (1 sale).
	r3, m3 := boot()
	defer r3.Close()
	if got := m3.Broker.SaleCount(); got != 3 {
		t.Fatalf("generation 3 recovered %d sales, want 3", got)
	}
	if !reflect.DeepEqual(m3.Broker.Statement(), wantBooks) {
		t.Fatal("recovered books differ from the pre-crash books")
	}
	if got := m3.Broker.TotalRevenue(); got != wantRevenue {
		t.Fatalf("recovered revenue %v, want %v", got, wantRevenue)
	}
}

// TestHTTPServerTimeouts: a public endpoint must bound how long a client
// may take to send a request and how long an idle keep-alive connection
// lives, while leaving responses unbounded for slow listings.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Errorf("ReadTimeout = %v, want ≥ ReadHeaderTimeout %v: a trickled body must also be bounded",
			srv.ReadTimeout, srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0: idle keep-alive connections must be reaped", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want unset until requests carry a deadline", srv.WriteTimeout)
	}
}
