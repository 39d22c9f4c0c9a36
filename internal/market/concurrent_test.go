package market

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/journal"
	"nimbus/internal/ml"
	"nimbus/internal/pricing"
	"nimbus/internal/rng"
	"nimbus/internal/telemetry"
)

// listSmall lists a small named offering — cheap enough that a test can
// build several and spread purchases across them.
func listSmall(t *testing.T, b *Broker, name string, seed int64) *Offering {
	t.Helper()
	o, err := b.List(smallOffering(t, name, seed))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// smallOffering builds listSmall's offering config, so that a goroutine
// other than the test's own can List it.
func smallOffering(t *testing.T, name string, seed int64) OfferingConfig {
	t.Helper()
	d, err := dataset.StandIn("CASP", dataset.GenConfig{Rows: 150, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	d.Name = name
	pair, err := dataset.NewPair(d, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSeller(pair, testResearch())
	if err != nil {
		t.Fatal(err)
	}
	return OfferingConfig{
		Seller:  s,
		Model:   ml.LinearRegression{Ridge: 1e-3},
		Grid:    pricing.DefaultGrid(8),
		Samples: 24,
		Seed:    seed + 2,
	}
}

// assertAggregatesMatchRescan is the regression check for the running
// books: SaleCount, Payouts, TotalFees, TotalRevenue and Statement must
// equal a fold of sales, the purchases the broker journaled, in journal
// order. The fold sums in the order the books did — the same
// floating-point association — so the two agree bit for bit, not merely
// closely.
func assertAggregatesMatchRescan(t *testing.T, b *Broker, sales []Purchase) {
	t.Helper()
	wantPayouts := make(map[string]float64)
	var wantFees, wantRevenue float64
	for _, p := range sales {
		wantPayouts[p.Offering] += p.SellerProceeds
		wantFees += p.BrokerFee
		wantRevenue += p.Price
	}
	if got := b.SaleCount(); got != len(sales) {
		t.Fatalf("SaleCount() %d, journal holds %d sales", got, len(sales))
	}
	gotPayouts := b.Payouts()
	if len(gotPayouts) != len(wantPayouts) || (len(wantPayouts) > 0 && !reflect.DeepEqual(gotPayouts, wantPayouts)) {
		t.Fatalf("Payouts() %v != journal fold %v", gotPayouts, wantPayouts)
	}
	if got := b.TotalFees(); got != wantFees {
		t.Fatalf("TotalFees() %v != journal fold %v", got, wantFees)
	}
	if got := b.TotalRevenue(); got != wantRevenue {
		t.Fatalf("TotalRevenue() %v != journal fold %v", got, wantRevenue)
	}
	if got, want := b.Statement(), statementOf(sales); !reflect.DeepEqual(got, want) {
		t.Fatalf("Statement() from running books %+v\n!= journal fold %+v", got, want)
	}
}

// TestConcurrentBuyOneCommitQueue hammers the buy path from every side at
// once — purchases on four offerings through one commit queue, menu
// browsing, a new listing, telemetry and commission changes, aggregate
// reads — then checks the books balance against the journal and that the
// journal replays into identical books. Run with -race in CI.
func TestConcurrentBuyOneCommitQueue(t *testing.T) {
	b := NewBroker(97)
	if err := b.SetCommission(0.1); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, n := range []string{"alpha", "beta", "gamma", "delta"} {
		o := listSmall(t, b, n, int64(100+10*i))
		names = append(names, o.Name)
	}
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	b.SetJournal(j)
	late := smallOffering(t, "epsilon", 140)

	const buyersPerOffering, buys = 3, 8
	var wg sync.WaitGroup
	for _, name := range names {
		for w := 0; w < buyersPerOffering; w++ {
			wg.Add(1)
			go func(name string, w int) {
				defer wg.Done()
				for i := 0; i < buys; i++ {
					if _, err := b.BuyAtQuality(name, "squared", float64(1+(w+i)%5)); err != nil {
						t.Error(err)
						return
					}
				}
			}(name, w)
		}
	}
	// Browse and admin churn while the buyers run: every menu writer —
	// List, SetTelemetry, SetCommission — races the buyers' menu reads and
	// must never block or corrupt a purchase. SetTelemetry replaces every
	// listed offering, which buyers may still be selling.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() {
		defer churn.Done()
		if _, err := b.List(late); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer churn.Done()
		rates := []float64{0.05, 0.1, 0.15}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if got := len(b.Menu()); got != len(names) && got != len(names)+1 {
				t.Errorf("menu has %d offerings, want %d or %d", got, len(names), len(names)+1)
				return
			}
			if _, err := b.Offering(names[i%len(names)]); err != nil {
				t.Error(err)
				return
			}
			if err := b.SetCommission(rates[i%len(rates)]); err != nil {
				t.Error(err)
				return
			}
			b.SetTelemetry(telemetry.NewRegistry())
			b.Payouts()
			b.TotalFees()
			b.Statement()
		}
	}()
	wg.Wait()
	close(stop)
	churn.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Menu()); got != len(names)+1 {
		t.Fatalf("menu has %d offerings after the churn, want %d", got, len(names)+1)
	}

	want := len(names) * buyersPerOffering * buys
	if got := b.SaleCount(); got != want {
		t.Fatalf("SaleCount %d, want %d", got, want)
	}
	sales := journalSales(t, dir)
	assertAggregatesMatchRescan(t, b, sales)

	// Crash-recovery equivalence: replaying the journal folds the sales
	// in the order the live books folded them, so the recovered books are
	// the originals, bit for bit.
	fresh := recoverInto(t, dir)
	if !reflect.DeepEqual(fresh.Statement(), b.Statement()) {
		t.Fatal("journal replay does not reproduce the books")
	}
	assertAggregatesMatchRescan(t, fresh, sales)
}

// TestAggregatesSurviveRestore checks the running aggregates through the
// save/restore path: a restored broker must report the same payouts, fees
// and revenue as the one that earned them, and its Statement must agree
// with the aggregates.
func TestAggregatesSurviveRestore(t *testing.T) {
	b := NewBroker(98)
	if err := b.SetCommission(0.2); err != nil {
		t.Fatal(err)
	}
	east := listSmall(t, b, "east", 300)
	west := listSmall(t, b, "west", 310)
	rj := &recordingJournal{}
	b.SetJournal(rj)
	for i := 0; i < 5; i++ {
		if _, err := b.BuyAtQuality(east.Name, "squared", float64(1+i%4)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.BuyAtQuality(west.Name, "squared", float64(1+(i+2)%4)); err != nil {
			t.Fatal(err)
		}
	}
	sales := rj.purchases(t)
	assertAggregatesMatchRescan(t, b, sales)

	var buf bytes.Buffer
	if err := b.SaveLedger(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewBroker(1)
	if err := fresh.RestoreLedger(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Statement(), b.Statement()) {
		t.Fatal("restored books differ from the saved ones")
	}
	assertAggregatesMatchRescan(t, fresh, sales)

	st := fresh.Statement()
	if st.Sales != fresh.SaleCount() {
		t.Fatalf("statement sales %d, SaleCount %d", st.Sales, fresh.SaleCount())
	}
	if st.BrokerFees != fresh.TotalFees() || st.Gross != fresh.TotalRevenue() {
		t.Fatalf("statement totals (fees %v, gross %v) disagree with aggregates (%v, %v)",
			st.BrokerFees, st.Gross, fresh.TotalFees(), fresh.TotalRevenue())
	}
}
