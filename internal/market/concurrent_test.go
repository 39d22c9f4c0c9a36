package market

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/dataset"
	"nimbus/internal/journal"
	"nimbus/internal/ml"
	"nimbus/internal/pricing"
	"nimbus/internal/rng"
	"nimbus/internal/telemetry"
)

// listSmall lists a small named offering — cheap enough that a test can
// build several and spread purchases across them.
func listSmall(t testing.TB, b *Broker, name string, seed int64) *Offering {
	t.Helper()
	o, err := b.List(smallOffering(t, name, seed))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// smallOffering builds listSmall's offering config, so that a goroutine
// other than the test's own can List it.
func smallOffering(t testing.TB, name string, seed int64) OfferingConfig {
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
		Seller: s,
		Model:  ml.LinearRegression{Ridge: 1e-3},
		Grid:   pricing.DefaultGrid(8),
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

// gatedJournal is a SaleJournal whose first AppendMany blocks until
// release is closed, after signalling entered. It records the size of
// every batch it is handed.
type gatedJournal struct {
	entered, release chan struct{}
	mu               sync.Mutex
	batches          []int // guarded by mu
}

func (g *gatedJournal) AppendMany(recs [][]byte) error {
	g.mu.Lock()
	g.batches = append(g.batches, len(recs))
	first := len(g.batches) == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return nil
}

// TestCommitQueueBatchesWaitingSales holds the first sale's journal
// append open while k more buyers arrive: they must all queue in one
// batch, and that batch must reach the journal as one AppendMany of
// exactly k records once the first append returns.
func TestCommitQueueBatchesWaitingSales(t *testing.T) {
	const k = 5
	b := NewBroker(11)
	o := listSmall(t, b, "queue", 60)
	j := &gatedJournal{entered: make(chan struct{}), release: make(chan struct{})}
	b.SetJournal(j)
	var wg sync.WaitGroup
	buy := func() {
		defer wg.Done()
		if _, err := b.BuyAtQuality(o.Name, "squared", 2); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go buy()
	<-j.entered
	wg.Add(k)
	for i := 0; i < k; i++ {
		go buy()
	}
	deadline := time.After(10 * time.Second)
	for queued := 0; queued < k; {
		select {
		case <-deadline:
			close(j.release)
			t.Fatalf("%d of %d buyers queued behind the held append", queued, k)
		default:
		}
		// TryLock: a commit that held jmu across the append would block
		// a plain Lock here until the deadline could no longer fire.
		if b.jmu.TryLock() {
			if b.jbatch != nil {
				queued = len(b.jbatch.recs)
			}
			b.jmu.Unlock()
		}
		runtime.Gosched()
	}
	close(j.release)
	wg.Wait()
	j.mu.Lock()
	batches := append([]int(nil), j.batches...)
	j.mu.Unlock()
	if !reflect.DeepEqual(batches, []int{1, k}) {
		t.Fatalf("journal batches %v, want [1 %d]", batches, k)
	}
	if n := b.SaleCount(); n != k+1 {
		t.Fatalf("books hold %d sales, want %d", n, k+1)
	}
}

// BenchmarkDurableBuy times the durable sale path — marshal, commit
// queue, a real journal append and the books fold — with 1, 2 and 8
// buyers sharing one broker, under the always and interval sync
// policies. Each op is one sale, so ns/op is the broker's time per sale
// at that concurrency.
func BenchmarkDurableBuy(b *testing.B) {
	for _, policy := range []journal.SyncPolicy{journal.SyncAlways, journal.SyncInterval} {
		for _, buyers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("%s/buyers=%d", policy, buyers), func(b *testing.B) {
				j, err := journal.Open(b.TempDir(), journal.Options{Sync: policy})
				if err != nil {
					b.Fatal(err)
				}
				defer func() {
					if err := j.Close(); err != nil {
						b.Error(err)
					}
				}()
				br := NewBroker(5)
				o := listSmall(b, br, "durable", 50)
				br.SetJournal(j)
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for g := 0; g < buyers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							if _, err := br.BuyAtQuality(o.Name, "squared", 2); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
