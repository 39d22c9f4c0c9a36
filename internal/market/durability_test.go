package market

import (
	"encoding/hex"
	"errors"
	"math"
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
	if rec[0] != saleRecordV2 {
		t.Fatalf("record starts with %#x, want the v2 version byte", rec[0])
	}
	back, err := UnmarshalSale(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, *p) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, *p)
	}
	// Awkward floats survive bit for bit: negative zero, the smallest
	// subnormal, the extremes, and a value with no short decimal form.
	odd := goldenPurchase()
	odd.NCP = math.Copysign(0, -1)
	odd.Weights = append(odd.Weights, math.Nextafter(1, 2), -math.SmallestNonzeroFloat64, math.MaxFloat64)
	if rec, err = MarshalSale(odd); err != nil {
		t.Fatal(err)
	}
	if back, err = UnmarshalSale(rec); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, back, odd)
}

// requireSameBits fails unless got and want hold the same strings and
// bit-identical floats (reflect.DeepEqual would equate 0 and -0).
func requireSameBits(t *testing.T, got, want Purchase) {
	t.Helper()
	bits := func(p Purchase) []uint64 {
		out := []uint64{
			math.Float64bits(p.X), math.Float64bits(p.NCP), math.Float64bits(p.Price),
			math.Float64bits(p.BrokerFee), math.Float64bits(p.SellerProceeds), math.Float64bits(p.ExpectedError),
		}
		for _, w := range p.Weights {
			out = append(out, math.Float64bits(w))
		}
		return out
	}
	if got.Offering != want.Offering || got.Loss != want.Loss || !reflect.DeepEqual(bits(got), bits(want)) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
	}
}

// goldenPurchase is the sale behind the golden records below.
func goldenPurchase() Purchase {
	return Purchase{
		Offering: "CASP/linear-regression", Loss: "squared",
		X: 4, NCP: 0.25, Price: 12.345678901234567, BrokerFee: 1.2345678901234567,
		SellerProceeds: 11.11111101111111, ExpectedError: 0.07031249999999999,
		Weights: []float64{0.1, -2.5e-7, 1234567.891, math.SmallestNonzeroFloat64, -math.MaxFloat64, 0, 3},
	}
}

// TestSaleRecordV1Golden pins compatibility with journals written before
// the binary format: this is goldenPurchase exactly as the JSON encoder
// wrote it, and it must still decode to the same purchase bit for bit.
func TestSaleRecordV1Golden(t *testing.T) {
	const v1 = `{"v":1,"purchase":{"offering":"CASP/linear-regression","loss":"squared","x":4,"ncp":0.25,` +
		`"price":12.345678901234567,"broker_fee":1.2345678901234567,"seller_proceeds":11.11111101111111,` +
		`"expected_error":0.07031249999999999,"weights":[0.1,-2.5e-7,1234567.891,5e-324,-1.7976931348623157e+308,0,3]}}`
	p, err := UnmarshalSale([]byte(v1))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, p, goldenPurchase())
}

// TestSaleRecordV2Layout pins the v2 byte layout on a tiny sale.
func TestSaleRecordV2Layout(t *testing.T) {
	p := Purchase{Offering: "o", Loss: "ls", X: 1, NCP: 1, Price: 2, BrokerFee: 0.5, SellerProceeds: 1.5, ExpectedError: -2, Weights: []float64{1}}
	want := "02" + "01000000" + "6f" + "02000000" + "6c73" +
		"000000000000f03f" + "000000000000f03f" + "0000000000000040" +
		"000000000000e03f" + "000000000000f83f" + "00000000000000c0" +
		"01000000" + "000000000000f03f"
	rec, err := MarshalSale(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(rec); got != want {
		t.Fatalf("v2 record\n got %s\nwant %s", got, want)
	}
}

func TestMarshalSaleRefusesNonFinite(t *testing.T) {
	fields := []func(*Purchase) *float64{
		func(p *Purchase) *float64 { return &p.X },
		func(p *Purchase) *float64 { return &p.NCP },
		func(p *Purchase) *float64 { return &p.Price },
		func(p *Purchase) *float64 { return &p.BrokerFee },
		func(p *Purchase) *float64 { return &p.SellerProceeds },
		func(p *Purchase) *float64 { return &p.ExpectedError },
		func(p *Purchase) *float64 { return &p.Weights[2] },
	}
	for i, field := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := goldenPurchase()
			*field(&p) = bad
			if rec, err := MarshalSale(p); err == nil {
				t.Errorf("field %d = %v encoded as %x", i, bad, rec)
			}
		}
	}
}

func TestUnmarshalSaleRejects(t *testing.T) {
	for _, rec := range []string{
		``,
		`{nope`,
		`{"v": 99, "purchase": {}}`,
		`{"v": 1, "purchase": {}, "extra": true}`,
		`{"v": 1, "purchase": {"offering": "x", "bogus_field": 1}}`,
		`{"v": 1, "purchase": {"offering": "x"}}garbage`,
		`{"v": 1, "purchase": {"offering": "x"}}{"v": 1, "purchase": {}}`,
		"\x03",
	} {
		if _, err := UnmarshalSale([]byte(rec)); err == nil {
			t.Errorf("record %q accepted", rec)
		}
	}

	valid, err := MarshalSale(goldenPurchase())
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix is a truncated field.
	for cut := 1; cut < len(valid); cut++ {
		if _, err := UnmarshalSale(valid[:cut]); err == nil {
			t.Errorf("record truncated to %d of %d bytes accepted", cut, len(valid))
		}
	}
	// The weight count sits right before the weights.
	countAt := len(valid) - 8*len(goldenPurchase().Weights) - 4
	bad := map[string][]byte{
		"trailing byte":                append(append([]byte(nil), valid...), 0),
		"weight count past the end":    patched(valid, countAt, 0x7f),
		"offering length past the end": patched(valid, 1, 0xff, 0xff, 0xff, 0x7f),
		"NaN price":                    patched(valid, countAt-8*4, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f),
		"+Inf weight":                  patched(valid, countAt+4, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f),
	}
	for name, rec := range bad {
		if _, err := UnmarshalSale(rec); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// patched returns a copy of rec with b written at offset at.
func patched(rec []byte, at int, b ...byte) []byte {
	out := append([]byte(nil), rec...)
	copy(out[at:], b)
	return out
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

// purchases decodes the records the journal received, in journal order.
func (r *recordingJournal) purchases(t *testing.T) []Purchase {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Purchase, len(r.recs))
	for i, rec := range r.recs {
		p, err := UnmarshalSale(rec)
		if err != nil {
			t.Fatalf("journal record %d: %v", i, err)
		}
		out[i] = p
	}
	return out
}

// journalSales decodes the sale records in a closed journal directory
// with journal.Replay, in journal order.
func journalSales(t *testing.T, dir string) []Purchase {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var out []Purchase
	if err := j.Replay(func(rec []byte) error {
		p, err := UnmarshalSale(rec)
		out = append(out, p)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
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
	if n := b.SaleCount(); n != 0 {
		t.Fatalf("unjournaled sale became visible: %d sales in the books", n)
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
	if len(rj.recs) != 1 || b.SaleCount() != 1 {
		t.Fatalf("recovered journal: %d records, %d sales", len(rj.recs), b.SaleCount())
	}
}

// TestJournalOrderMatchesLedger hammers the buy path concurrently and
// checks the invariant the write-ahead design promises: the journal holds
// exactly the purchases the buyers got back — each buyer's in the order it
// made them, across offerings too, since one broker keeps one journal —
// and the books equal their fold in journal order.
func TestJournalOrderMatchesLedger(t *testing.T) {
	const workers, buys = 4, 6
	run := func(t *testing.T, b *Broker, names []string) {
		rj := &recordingJournal{}
		b.SetJournal(rj)
		got := make([][]Purchase, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < buys; i++ {
					name := names[(w+i)%len(names)]
					p, err := b.BuyAtQuality(name, "squared", float64(1+(w+i)%5))
					if err != nil {
						t.Error(err)
						return
					}
					got[w] = append(got[w], *p)
				}
			}(w)
		}
		wg.Wait()

		sales := rj.purchases(t)
		if len(sales) != workers*buys {
			t.Fatalf("%d journal records, want %d", len(sales), workers*buys)
		}
		// Walk the journal once, matching each record against the next
		// unmatched purchase of some buyer: every record must be one, and
		// every purchase must be matched.
		next := make([]int, workers)
		for i, p := range sales {
			w := 0
			for ; w < workers; w++ {
				if next[w] < len(got[w]) && reflect.DeepEqual(p, got[w][next[w]]) {
					break
				}
			}
			if w == workers {
				t.Fatalf("journal record %d (%s) is not the next purchase of any buyer", i, p.Offering)
			}
			next[w]++
		}
		assertAggregatesMatchRescan(t, b, sales)
	}
	t.Run("one offering", func(t *testing.T) {
		b := NewBroker(93)
		o := listRegression(t, b)
		run(t, b, []string{o.Name})
	})
	t.Run("two offerings", func(t *testing.T) {
		// Every worker alternates between the two offerings, so the
		// journal interleaves them; the books must fold them in that
		// interleaved order.
		b := NewBroker(93)
		east := listSmall(t, b, "east", 300)
		west := listSmall(t, b, "west", 310)
		run(t, b, []string{east.Name, west.Name})
	})
}

// buyN makes n purchases at varying qualities and returns them in the
// order BuyAtQuality returned them.
func buyN(t *testing.T, b *Broker, name string, n int) []Purchase {
	t.Helper()
	sales := make([]Purchase, 0, n)
	for i := 0; i < n; i++ {
		p, err := b.BuyAtQuality(name, "squared", float64(1+i%5))
		if err != nil {
			t.Fatal(err)
		}
		sales = append(sales, *p)
	}
	return sales
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
// truncation of the journal bytes, recovery yields the books of some
// prefix of the sales sequence: k recovered sales give exactly the
// Statement of the first k purchases the buyer got back, bit for bit.
func TestEveryJournalPrefixRecoversALedgerPrefix(t *testing.T) {
	b := NewBroker(94)
	if err := b.SetCommission(0.1); err != nil {
		t.Fatal(err)
	}
	o := listRegression(t, b)
	// Every sale of o encodes to the same length, so a segment that
	// rotates at two records' worth of bytes holds two framed records.
	rec, err := MarshalSale(Purchase{Offering: o.Name, Loss: "squared", Weights: make([]float64, len(o.Optimal))})
	if err != nil {
		t.Fatal(err)
	}
	master := t.TempDir()
	j, err := journal.Open(master, journal.Options{Sync: journal.SyncNever, SegmentBytes: int64(2 * len(rec))})
	if err != nil {
		t.Fatal(err)
	}
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
			k := fresh.SaleCount()
			if k > len(sales) {
				t.Fatalf("seg %d cut %d: recovered %d sales of %d", segIdx, cut, k, len(sales))
			}
			want := statementOf(sales[:k])
			if got := fresh.Statement(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seg %d cut %d: recovered books %+v are not the fold of the first %d sales %+v", segIdx, cut, got, k, want)
			}
			if fresh.TotalRevenue() != want.Gross {
				t.Fatalf("seg %d cut %d: TotalRevenue %v != replayed receipts %v", segIdx, cut, fresh.TotalRevenue(), want.Gross)
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
	sales := buyN(t, b, o.Name, 3)
	if err := j.Compact(b.SaveLedger); err != nil {
		t.Fatal(err)
	}
	sales = append(sales, buyN(t, b, o.Name, 2)...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if tail := journalSales(t, dir); !reflect.DeepEqual(tail, sales[3:]) {
		t.Fatalf("journal tail holds %d sales, want the 2 after compaction", len(tail))
	}

	fresh := recoverInto(t, dir)
	if got := fresh.SaleCount(); got != 5 {
		t.Fatalf("recovered %d sales, want 5", got)
	}
	if got := fresh.Statement(); !reflect.DeepEqual(got, b.Statement()) || !reflect.DeepEqual(got, statementOf(sales)) {
		t.Fatal("snapshot+tail recovery does not reproduce the books")
	}
	if fresh.TotalRevenue() != b.TotalRevenue() || fresh.TotalFees() != b.TotalFees() {
		t.Fatalf("revenue %v vs %v", fresh.TotalRevenue(), b.TotalRevenue())
	}
}
