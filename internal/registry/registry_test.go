package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/telemetry"
)

// cheapSpec is a listing small enough that tests can build several
// markets: the same CASP stand-in sizing the market package's concurrency
// tests use.
func cheapSpec(id string, seed int64) Spec {
	return Spec{
		ID:        id,
		Owner:     "seller-" + id,
		Generator: "CASP",
		Rows:      150,
		Grid:      8,
		Samples:   24,
		Seed:      seed,
	}
}

// offeringOf is the single offering a cheapSpec market lists: CASP is a
// regression stand-in, so the task-default model is linear regression.
func offeringOf(id string) string { return id + "/linear-regression" }

// testCSV renders a small deterministic regression relation.
func testCSV(rows int) []byte {
	var sb strings.Builder
	sb.WriteString("x1,x2,y\n")
	for i := 0; i < rows; i++ {
		x1 := float64(i % 11)
		x2 := float64((i * 3) % 7)
		y := 2*x1 - x2 + 0.01*float64(i%5)
		fmt.Fprintf(&sb, "%g,%g,%g\n", x1, x2, y)
	}
	return []byte(sb.String())
}

func TestListBuyDelist(t *testing.T) {
	reg := telemetry.NewRegistry()
	r, err := Open(Config{Commission: 0.1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.List(cheapSpec("acme", 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Menu(), []string{offeringOf("acme")}; !reflect.DeepEqual(got, want) {
		t.Fatalf("menu %v, want %v", got, want)
	}
	for _, option := range []string{"quality", "error-budget", "price-budget"} {
		value := 2.0
		if option != "quality" {
			value = 1e9 // budget large enough to always clear
		}
		p, err := m.Buy(offeringOf("acme"), "squared", option, value)
		if err != nil {
			t.Fatalf("%s: %v", option, err)
		}
		if p.Price <= 0 {
			t.Fatalf("%s: non-positive price %v", option, p.Price)
		}
	}
	if _, err := m.Buy(offeringOf("acme"), "squared", "bulk-discount", 1); !errors.Is(err, ErrBadOption) {
		t.Fatalf("bad option: %v", err)
	}
	if _, err := m.Buy(offeringOf("acme"), "squared", "quality", 3); err != nil {
		t.Fatal(err)
	}
	// A market sells only its own offerings.
	if _, err := m.Buy("nobody/linear-regression", "squared", "quality", 3); !errors.Is(err, market.ErrUnknownOffering) {
		t.Fatalf("unknown offering: %v", err)
	}

	st := r.Stats()
	if st.Markets != 1 || st.Offerings != 1 || st.Sales != 4 {
		t.Fatalf("stats %+v", st)
	}
	if st.Gross <= 0 || st.Gross != st.PerMarket[0].Gross {
		t.Fatalf("stats totals %+v", st)
	}

	final, err := r.Delist("acme")
	if err != nil {
		t.Fatal(err)
	}
	if final.Sales != 4 {
		t.Fatalf("final statement %+v", final)
	}
	if _, err := r.Get("acme"); !errors.Is(err, ErrUnknownMarket) {
		t.Fatalf("get after delist: %v", err)
	}
	if _, err := m.Buy(offeringOf("acme"), "squared", "quality", 2); !errors.Is(err, ErrDelisting) {
		t.Fatalf("buy after delist: %v", err)
	}
	if _, err := r.Delist("acme"); !errors.Is(err, ErrUnknownMarket) {
		t.Fatalf("double delist: %v", err)
	}
	if got := r.Count(); got != 0 {
		t.Fatalf("count %d after delist", got)
	}
}

func TestListValidation(t *testing.T) {
	r, err := Open(Config{MaxMarkets: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Spec{
		{ID: "", Generator: "CASP"},
		{ID: ".hidden", Generator: "CASP"},
		{ID: "space name", Generator: "CASP"},
		{ID: strings.Repeat("x", 65), Generator: "CASP"},
		{ID: "a/b", Generator: "CASP"},
		{ID: "ok"},                                                     // no source
		{ID: "ok", Generator: "NoSuchSet"},                             // unknown generator
		{ID: "ok", Generator: "CASP", CSV: true},                       // both sources
		{ID: "ok", CSV: true, Task: "ranking", Target: "y"},            // bad task
		{ID: "ok", CSV: true, Task: "regression"},                      // no target
		{ID: "ok", Generator: "CASP", Model: "gradient-boosted-trees"}, // unknown model
	} {
		if _, err := r.List(bad, nil); err == nil {
			t.Fatalf("spec %+v accepted", bad)
		}
	}
	if _, err := r.List(cheapSpec("one", 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.List(cheapSpec("one", 2), nil); !errors.Is(err, ErrMarketExists) {
		t.Fatalf("duplicate id: %v", err)
	}
	if _, err := r.List(cheapSpec("two", 3), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.List(cheapSpec("three", 4), nil); !errors.Is(err, ErrTooManyMarkets) {
		t.Fatalf("over limit: %v", err)
	}
	// Delisting frees a slot.
	if _, err := r.Delist("one"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.List(cheapSpec("three", 4), nil); err != nil {
		t.Fatalf("list after freeing a slot: %v", err)
	}
}

func TestCSVMarketAndRecovery(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.2, Sync: journal.SyncAlways, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ID:      "uploads",
		Owner:   "csv-seller",
		CSV:     true,
		Task:    "regression",
		Target:  "y",
		Grid:    8,
		Samples: 24,
		Seed:    11,
	}
	m, err := r.List(spec, testCSV(120))
	if err != nil {
		t.Fatal(err)
	}
	want := offeringOf("uploads")
	if got := m.Broker.Menu(); !reflect.DeepEqual(got, []string{want}) {
		t.Fatalf("csv market menu %v", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Buy(want, "squared", "quality", float64(1+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	books := m.Broker.Statement()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed registry refuses work.
	if _, err := r.List(cheapSpec("late", 9), nil); err == nil {
		t.Fatal("list on closed registry accepted")
	}

	// Restart: the tenant comes back from manifest + dataset.csv + journal,
	// with identical books.
	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	m2, err := r2.Get("uploads")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Spec.Owner != "csv-seller" || !m2.Spec.CSV {
		t.Fatalf("recovered spec %+v", m2.Spec)
	}
	if m2.Broker.SaleCount() != 5 || !reflect.DeepEqual(m2.Broker.Statement(), books) {
		t.Fatal("recovered books differ")
	}
	// The recovered market keeps selling and journaling.
	if _, err := m2.Buy(want, "squared", "quality", 2); err != nil {
		t.Fatal(err)
	}
}

func TestDelistDrainsThenRejects(t *testing.T) {
	r, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.List(cheapSpec("drainme", 21), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Buy(offeringOf("drainme"), "squared", "quality", 2); err != nil {
		t.Fatal(err)
	}

	// Hold one purchase in flight, then delist: Delist must block in drain
	// until the purchase finishes, and new purchases must be rejected while
	// it drains.
	if err := m.acquire(); err != nil {
		t.Fatal(err)
	}
	done := make(chan *market.Statement, 1)
	go func() {
		st, err := r.Delist("drainme")
		if err != nil {
			t.Error(err)
		}
		done <- st
	}()
	// Wait until the delist has set the draining flag.
	for {
		m.mu.Lock()
		draining := m.draining
		m.mu.Unlock()
		if draining {
			break
		}
		runtime.Gosched()
	}
	if _, err := m.Buy(offeringOf("drainme"), "squared", "quality", 2); !errors.Is(err, ErrDelisting) {
		t.Fatalf("buy while draining: %v", err)
	}
	// A Delist that did not wait for the held purchase would return well
	// inside this window: a memory-only retire has no journal to compact.
	select {
	case <-done:
		t.Fatal("Delist returned with a purchase still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	// The held purchase completes a sale before it finishes, so the final
	// statement must count it.
	if _, err := m.Broker.BuyAtQuality(offeringOf("drainme"), "squared", 2); err != nil {
		t.Fatal(err)
	}
	m.inflight.Done()
	st := <-done
	if st.Sales != 2 {
		t.Fatalf("final statement %+v, want the sale before the delist and the one in flight", st)
	}
}

// TestListFinishingAfterCloseLeavesNothing: a List whose build finishes
// after Close has begun must not publish into the closed registry, whose
// Close never sees the market and so never retires it. The List fails
// with the registry's closed error, closes the tenant journal and removes
// the half-listed tenant directory, as a failed build does.
func TestListFinishingAfterCloseLeavesNothing(t *testing.T) {
	root := t.TempDir()
	reg := telemetry.NewRegistry()
	r, err := Open(Config{Root: root, Sync: journal.SyncInterval, SyncEvery: time.Hour, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cheapSpec("late", 7).normalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.reserve(spec.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := r.listReserved(spec, nil); !errors.Is(err, errClosed) {
		t.Fatalf("List finishing after Close: market %v, error %v; want %v", m, err, errClosed)
	}
	requireJournalsClosed(t, reg)
	if _, err := os.Stat(tenantDir(root, spec.ID)); !os.IsNotExist(err) {
		t.Fatalf("half-listed tenant directory left behind: %v", err)
	}
	r.mu.RLock()
	live, pending := len(r.markets), len(r.pending)
	r.mu.RUnlock()
	if live != 0 || pending != 0 {
		t.Fatalf("closed registry holds %d markets and %d reservations", live, pending)
	}
}

// TestConcurrentLifecycle churns one market through delist/list cycles
// while buyers hammer the whole marketplace. Run with -race in CI: the
// invariant is that buyers only ever see clean outcomes — a purchase, an
// unknown-market miss, or a drain rejection — never a torn market.
func TestConcurrentLifecycle(t *testing.T) {
	r, err := Open(Config{Commission: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"alpha", "beta"} {
		if _, err := r.List(cheapSpec(id, int64(100+10*i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	churnSpec := cheapSpec("churn", 300)
	if _, err := r.List(churnSpec, nil); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var buyers sync.WaitGroup
	ids := []string{"alpha", "beta", "churn"}
	for w := 0; w < 4; w++ {
		buyers.Add(1)
		go func(w int) {
			defer buyers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(w+i)%len(ids)]
				m, err := r.Get(id)
				if err == nil {
					_, err = m.Buy(offeringOf(id), "squared", "quality", float64(1+i%5))
				}
				switch {
				case err == nil:
				case errors.Is(err, ErrUnknownMarket):
				case errors.Is(err, ErrDelisting):
				default:
					t.Errorf("buy %s: %v", id, err)
					return
				}
				r.Stats()
				r.Menu()
			}
		}(w)
	}
	for cycle := 0; cycle < 3; cycle++ {
		if _, err := r.Delist("churn"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.List(churnSpec, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	buyers.Wait()

	st := r.Stats()
	if st.Markets != 3 {
		t.Fatalf("stats %+v", st)
	}
	for _, id := range []string{"alpha", "beta", "churn"} {
		m, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		// The running books must still balance against a full rescan after
		// all the concurrent churn.
		if got, want := m.Broker.TotalFees()+sumPayouts(m.Broker.Payouts()), m.Broker.TotalRevenue(); !close9(got, want) {
			t.Fatalf("market %s books unbalanced: fees+payouts %v, revenue %v", id, got, want)
		}
	}
}

func sumPayouts(p map[string]float64) float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

func close9(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

// TestTwoTenantTornTailRecovery kills the daemon mid-commit, figuratively:
// two tenants take sales under SyncAlways, the registry is abandoned
// without Close (no compaction), and each tenant's newest journal segment
// gets garbage appended — a torn tail. A fresh Open must truncate each
// tenant's tail independently and recover both ledgers exactly.
func TestTwoTenantTornTailRecovery(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncAlways, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledgers := map[string]*market.Statement{}
	for i, id := range []string{"north", "south"} {
		m, err := r.List(cheapSpec(id, int64(400+10*i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4+i; k++ {
			if _, err := m.Buy(offeringOf(id), "squared", "quality", float64(1+k%4)); err != nil {
				t.Fatal(err)
			}
		}
		ledgers[id] = m.Broker.Statement()
	}
	// Abandon r without Close: journals stay uncompacted, like kill -9.
	for _, id := range []string{"north", "south"} {
		segs, err := filepath.Glob(filepath.Join(root, id, "journal", "seg-*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("tenant %s journal segments: %v %v", id, segs, err)
		}
		tail := segs[len(segs)-1]
		f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Count(); got != 2 {
		t.Fatalf("recovered %d markets, want 2", got)
	}
	for id, want := range ledgers {
		m, err := r2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.Broker.SaleCount() != want.Sales || !reflect.DeepEqual(m.Broker.Statement(), want) {
			t.Fatalf("tenant %s: recovered books differ", id)
		}
	}
	// Both survivors keep trading after recovery.
	for id := range ledgers {
		m, err := r2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Buy(offeringOf(id), "squared", "quality", 2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDelistArchivesTenantDir checks the durable delist path: the tenant
// directory moves to the archive (never deleted), the ID becomes
// relistable, and a second delist of the same ID lands in the next
// archive slot.
func TestDelistArchivesTenantDir(t *testing.T) {
	root := t.TempDir()
	r, err := Open(Config{Root: root, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for cycle := 1; cycle <= 2; cycle++ {
		m, err := r.List(cheapSpec("phoenix", int64(cycle)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Buy(offeringOf("phoenix"), "squared", "quality", 2); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Delist("phoenix"); err != nil {
			t.Fatal(err)
		}
		arch := filepath.Join(root, ".delisted", fmt.Sprintf("phoenix-%d", cycle))
		if _, err := os.Stat(filepath.Join(arch, "manifest.json")); err != nil {
			t.Fatalf("cycle %d: archived manifest: %v", cycle, err)
		}
		if _, err := os.Stat(filepath.Join(root, "phoenix")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("cycle %d: live dir still present: %v", cycle, err)
		}
	}
	// The archive must be invisible to recovery.
	r2, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Count(); got != 0 {
		t.Fatalf("recovered %d markets from an archive-only root", got)
	}
}

// TestFailedRecoveryClosesRecoveredTenants: a corrupt tenant fails Open,
// which names the first corrupt tenant in directory order (tenants recover
// concurrently, so the second case checks that timing cannot change it)
// and closes the journal of every tenant that did recover.
func TestFailedRecoveryClosesRecoveredTenants(t *testing.T) {
	for _, c := range []struct {
		ids, corrupt []string
	}{
		{[]string{"aaa", "zzz"}, []string{"zzz"}},
		{[]string{"aaa", "bbb", "ccc", "ddd"}, []string{"bbb", "ccc"}},
	} {
		t.Run(strings.Join(c.ids, "-"), func(t *testing.T) {
			failedRecoveryClosesRecoveredTenants(t, c.ids, c.corrupt)
		})
	}
}

func failedRecoveryClosesRecoveredTenants(t *testing.T, ids, corrupt []string) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncInterval, SyncEvery: time.Hour, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := r.List(cheapSpec(id, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range corrupt {
		if err := os.WriteFile(filepath.Join(root, id, "manifest.json"), []byte("{corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Telemetry = telemetry.NewRegistry()
	r2, err := Open(cfg)
	if err == nil {
		r2.Close()
		t.Fatal("Open succeeded despite a corrupt tenant manifest")
	}
	for i, id := range corrupt {
		if named := strings.Contains(err.Error(), "tenant "+id+":"); named != (i == 0) {
			t.Fatalf("error must name exactly the first corrupt tenant, %s: %v", corrupt[0], err)
		}
	}
	// The recovered tenants' journals must have been closed on the error
	// path.
	requireJournalsClosed(t, cfg.Telemetry)
}

// requireJournalsClosed fails the test unless every journal opened with
// reg has been closed: each open journal adds its segment count to the
// nimbus_journal_segments gauge, and Close takes it back out.
func requireJournalsClosed(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	if n := reg.Gauge("nimbus_journal_segments").Value(); n != 0 {
		t.Fatalf("a journal was left open: %v segments still counted", n)
	}
}
