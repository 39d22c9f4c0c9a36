package market

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"nimbus/internal/journal"
	"nimbus/internal/telemetry"
)

func TestSaleRecordRoundTrip(t *testing.T) {
	b := NewBroker(91)
	o := listRegression(t, b)
	p, err := b.BuyAtQuality(o.Name, "squared", 4)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := MarshalSale(*p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSale(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, *p) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, *p)
	}
}

func TestUnmarshalSaleRejects(t *testing.T) {
	for _, rec := range []string{
		`{nope`,
		`{"v": 99, "purchase": {}}`,
		`{"v": 1, "purchase": {}, "extra": true}`,
		`{"v": 1, "purchase": {"offering": "x", "bogus_field": 1}}`,
	} {
		if _, err := UnmarshalSale([]byte(rec)); err == nil {
			t.Errorf("record %q accepted", rec)
		}
	}
}

// recordingJournal captures appends; fail makes every append refuse.
type recordingJournal struct {
	mu   sync.Mutex
	recs [][]byte
	fail error
}

func (r *recordingJournal) AppendMany(recs [][]byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return r.fail
	}
	for _, rec := range recs {
		r.recs = append(r.recs, append([]byte(nil), rec...))
	}
	return nil
}

func TestJournalAppendFailureRejectsSale(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBroker(92)
	b.SetTelemetry(reg)
	o := listRegression(t, b)
	rj := &recordingJournal{fail: errors.New("disk full")}
	b.SetJournal(rj)

	if _, err := b.BuyAtQuality(o.Name, "squared", 3); !errors.Is(err, ErrJournal) {
		t.Fatalf("want ErrJournal, got %v", err)
	}
	if n := len(b.Sales()); n != 0 {
		t.Fatalf("unjournaled sale became visible: %d ledger entries", n)
	}
	if b.TotalRevenue() != 0 {
		t.Fatal("unjournaled sale charged revenue")
	}
	if got := reg.Counter("nimbus_purchase_rejects_total", "reason", "journal").Value(); got != 1 {
		t.Fatalf("journal reject not counted: %d", got)
	}

	// Journal heals: the next sale goes through and is appended.
	rj.mu.Lock()
	rj.fail = nil
	rj.mu.Unlock()
	if _, err := b.BuyAtQuality(o.Name, "squared", 3); err != nil {
		t.Fatal(err)
	}
	if len(rj.recs) != 1 || len(b.Sales()) != 1 {
		t.Fatalf("recovered journal: %d records, %d sales", len(rj.recs), len(b.Sales()))
	}
}

// TestJournalOrderMatchesLedger hammers the buy path concurrently and
// checks the invariant the write-ahead design promises: the journal's
// record sequence is exactly the ledger's sale sequence — across
// offerings too, since one broker keeps one ledger.
func TestJournalOrderMatchesLedger(t *testing.T) {
	const workers, buys = 4, 6
	run := func(t *testing.T, b *Broker, names []string) {
		rj := &recordingJournal{}
		b.SetJournal(rj)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < buys; i++ {
					name := names[(w+i)%len(names)]
					if _, err := b.BuyAtQuality(name, "squared", float64(1+(w+i)%5)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		sales := b.Sales()
		if len(sales) != workers*buys || len(rj.recs) != len(sales) {
			t.Fatalf("%d sales, %d journal records", len(sales), len(rj.recs))
		}
		for i, rec := range rj.recs {
			p, err := UnmarshalSale(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p, sales[i]) {
				t.Fatalf("journal record %d (%s) does not match ledger entry %d (%s)", i, p.Offering, i, sales[i].Offering)
			}
		}
	}
	t.Run("one offering", func(t *testing.T) {
		b := NewBroker(93)
		o := listRegression(t, b)
		run(t, b, []string{o.Name})
	})
	t.Run("two offerings", func(t *testing.T) {
		// Every worker alternates between the two offerings, so the
		// journal interleaves them; Sales() must interleave them the
		// same way.
		b := NewBroker(93)
		east := listSmall(t, b, "east", 300)
		west := listSmall(t, b, "west", 310)
		run(t, b, []string{east.Name, west.Name})
	})
}

// buyN makes n purchases at varying qualities and returns the ledger.
func buyN(t *testing.T, b *Broker, name string, n int) []Purchase {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := b.BuyAtQuality(name, "squared", float64(1+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Sales()
}

// recoverInto replays a journal directory into a fresh broker, as the
// registry's recoverTenant does at startup (through openTenantJournal):
// snapshot first, then the record tail.
func recoverInto(t *testing.T, dir string) *Broker {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fresh := NewBroker(1)
	if snap, ok, err := j.Snapshot(); err != nil {
		t.Fatal(err)
	} else if ok {
		if err := fresh.RestoreLedger(snap); err != nil {
			t.Fatal(err)
		}
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Replay(func(rec []byte) error {
		p, err := UnmarshalSale(rec)
		if err != nil {
			return err
		}
		fresh.ReplaySale(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestEveryJournalPrefixRecoversALedgerPrefix is the crash-recovery
// acceptance property: journal N purchases, then for every prefix
// truncation of the journal bytes, recovery yields a ledger equal to some
// prefix of the sales sequence, with TotalRevenue matching the replayed
// receipts exactly.
func TestEveryJournalPrefixRecoversALedgerPrefix(t *testing.T) {
	master := t.TempDir()
	j, err := journal.Open(master, journal.Options{Sync: journal.SyncNever, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(94)
	if err := b.SetCommission(0.1); err != nil {
		t.Fatal(err)
	}
	o := listRegression(t, b)
	b.SetJournal(j)
	sales := buyN(t, b, o.Name, 6)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(master, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	if len(segs) < 2 {
		t.Fatalf("want the journal spread over segments, got %v", segs)
	}
	bodies := make([][]byte, len(segs))
	for i, s := range segs {
		if bodies[i], err = os.ReadFile(s); err != nil {
			t.Fatal(err)
		}
	}

	prevK := -1
	for segIdx := range segs {
		for cut := 0; cut <= len(bodies[segIdx]); cut++ {
			dir := t.TempDir()
			for i := 0; i < segIdx; i++ {
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[i])), bodies[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[segIdx])), bodies[segIdx][:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			fresh := recoverInto(t, dir)
			got := fresh.Sales()
			k := len(got)
			if k > 0 && !reflect.DeepEqual(got, sales[:k]) {
				t.Fatalf("seg %d cut %d: recovered ledger is not a prefix of the sales sequence", segIdx, cut)
			}
			var receipts float64
			for _, p := range got {
				receipts += p.Price
			}
			if fresh.TotalRevenue() != receipts {
				t.Fatalf("seg %d cut %d: TotalRevenue %v != replayed receipts %v", segIdx, cut, fresh.TotalRevenue(), receipts)
			}
			if k < prevK {
				t.Fatalf("seg %d cut %d: recovered %d sales, previously %d", segIdx, cut, k, prevK)
			}
			prevK = k
		}
	}
	if prevK != len(sales) {
		t.Fatalf("full journal recovered %d of %d sales", prevK, len(sales))
	}
}

// TestSnapshotPlusTailRecovery covers the compacted case: some sales live
// in the snapshot, later ones in the journal tail, and recovery stitches
// them back together.
func TestSnapshotPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(95)
	o := listRegression(t, b)
	b.SetJournal(j)
	buyN(t, b, o.Name, 3)
	if err := j.Compact(b.SaveLedger); err != nil {
		t.Fatal(err)
	}
	buyN(t, b, o.Name, 2)
	sales := b.Sales()
	if len(sales) != 5 {
		t.Fatalf("%d sales", len(sales))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := recoverInto(t, dir)
	if !reflect.DeepEqual(fresh.Sales(), sales) {
		t.Fatal("snapshot+tail recovery does not reproduce the ledger")
	}
	if fresh.TotalRevenue() != b.TotalRevenue() {
		t.Fatalf("revenue %v vs %v", fresh.TotalRevenue(), b.TotalRevenue())
	}
}
