package market

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestLedgerSaveRestoreRoundTrip(t *testing.T) {
	b := NewBroker(81)
	if err := b.SetCommission(0.1); err != nil {
		t.Fatal(err)
	}
	o := listRegression(t, b)
	sales := buyN(t, b, o.Name, 3)
	var buf bytes.Buffer
	if err := b.SaveLedger(&buf); err != nil {
		t.Fatal(err)
	}
	// The snapshot holds the books, not the sales.
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["sales"]; ok || string(snap["version"]) != "2" {
		t.Fatalf("snapshot is not a v2 books snapshot:\n%s", buf.Bytes())
	}

	fresh := NewBroker(82)
	if err := fresh.RestoreLedger(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.SaleCount(); got != 3 {
		t.Fatalf("restored %d sales", got)
	}
	if got := fresh.Statement(); !reflect.DeepEqual(got, b.Statement()) || !reflect.DeepEqual(got, statementOf(sales)) {
		t.Fatalf("restored books %+v differ from the saved ones", got)
	}
	// The restored books keep folding: one more sale gives the fold of all
	// four, bit for bit.
	extra := sales[1]
	extra.Price, extra.BrokerFee, extra.SellerProceeds = 0.1, 0.01, 0.09
	fresh.ReplaySale(extra)
	if got, want := fresh.Statement(), statementOf(append(sales, extra)); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored books then a sale %+v != fold of all sales %+v", got, want)
	}
}

// TestRestoreLedgerV1Golden pins compatibility with data dirs compacted
// by earlier builds: testdata/ledger-v1.json is a v1 snapshot exactly as
// those builds' SaveLedger wrote it (five sales over two offerings at a
// 15% commission). Restoring it must give the books of its sales folded in
// order, bit for bit.
func TestRestoreLedgerV1Golden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "ledger-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap LedgerSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	want := statementOf(snap.Sales)
	if snap.Version != 1 || want.Sales != 5 || len(want.Lines) != 2 || want.BrokerFees <= 0 {
		t.Fatalf("golden is not five commissioned sales over two offerings: %+v", want)
	}
	b := NewBroker(1)
	if err := b.RestoreLedger(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if got := b.Statement(); !reflect.DeepEqual(got, want) || b.SaleCount() != 5 {
		t.Fatalf("restored books %+v, want %+v", got, want)
	}
}

// v2Books is a hand-written v2 snapshot: two offerings, three sales.
const v2Books = `{"version": 2, "books": {"lines": [` +
	`{"offering": "a", "sales": 2, "gross": 3, "fees": 0.5, "payout": 2.5}, ` +
	`{"offering": "b", "sales": 1, "gross": 1, "fees": 0.25, "payout": 0.75}], ` +
	`"sales": 3, "gross": 4, "broker_fees": 0.75, "payouts": 3.25}}`

func TestRestoreLedgerRejects(t *testing.T) {
	b := NewBroker(83)
	requireEmpty := func() {
		t.Helper()
		if b.SaleCount() != 0 || !reflect.DeepEqual(b.Statement(), &Statement{}) {
			t.Fatalf("failed restores must leave the books empty: %+v", b.Statement())
		}
	}
	// Bad JSON.
	if err := b.RestoreLedger(strings.NewReader("{nope")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	// Empty input (zero-byte snapshot file).
	if err := b.RestoreLedger(strings.NewReader("")); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	// Truncated JSON: a syntactically valid prefix of a real snapshot,
	// as left by a crash mid-write of a non-atomic save.
	whole := `{"version": 1, "sales": [{"offering": "CASP/linear-regression", "loss": "squared", "x": 2, "ncp": 0.5, "price": 10, "broker_fee": 1, "seller_proceeds": 9, "expected_error": 0.1, "weights": [1, 2]}]}`
	for _, cut := range []int{len(whole) / 4, len(whole) / 2, len(whole) - 1} {
		if err := b.RestoreLedger(strings.NewReader(whole[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) accepted", cut, len(whole))
		}
	}
	requireEmpty()
	// Wrong version.
	if err := b.RestoreLedger(strings.NewReader(`{"version": 99, "sales": []}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Unknown fields.
	if err := b.RestoreLedger(strings.NewReader(`{"version": 1, "sales": [], "extra": true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Sales that each fit a float64 but overflow the books, which
	// SaveLedger could then never write.
	huge := `{"offering": "a", "loss": "squared", "x": 1, "ncp": 1, "price": 1e308, "broker_fee": 0, "seller_proceeds": 1e308, "expected_error": 0, "weights": []}`
	if err := b.RestoreLedger(strings.NewReader(`{"version": 1, "sales": [` + huge + `, ` + huge + `]}`)); err == nil {
		t.Fatal("sales overflowing the books accepted")
	}
	// Anything after the snapshot: junk, or a second snapshot.
	for _, trailing := range []string{"garbage", `{"version": 1, "sales": []}`} {
		if err := b.RestoreLedger(strings.NewReader(whole + "\n" + trailing)); err == nil {
			t.Fatalf("snapshot followed by %q accepted", trailing)
		}
	}
	requireEmpty()

	// v2: the hand-written snapshot is valid, and each edit below makes
	// it one that folding sales could not have produced, or one this
	// reader does not fully understand.
	if err := NewBroker(1).RestoreLedger(strings.NewReader(v2Books)); err != nil {
		t.Fatalf("valid v2 snapshot refused: %v", err)
	}
	edits := map[string][2]string{
		"unknown version":          {`"version": 2`, `"version": 3`},
		"unknown top-level field":  {`"version": 2,`, `"version": 2, "extra": true,`},
		"unknown books field":      {`"sales": 3,`, `"sales": 3, "extra": true,`},
		"unknown line field":       {`"sales": 1,`, `"sales": 1, "extra": true,`},
		"negative total count":     {`"sales": 3,`, `"sales": -3,`},
		"negative line count":      {`"sales": 1,`, `"sales": -1,`},
		"line without sales":       {`"sales": 1,`, `"sales": 0,`},
		"lines short of the total": {`"sales": 3,`, `"sales": 4,`},
		"lines over the total":     {`"sales": 3,`, `"sales": 2,`},
		"duplicate offering":       {`"offering": "b"`, `"offering": "a"`},
		"v2 carrying sales":        {`"version": 2,`, `"version": 2, "sales": [],`},
		"v1 carrying books":        {`"version": 2`, `"version": 1`},
		"v2 without books":         {v2Books, `{"version": 2}`},
		"float count":              {`"sales": 3,`, `"sales": 3.5,`},
	}
	for name, e := range edits {
		bad := strings.Replace(v2Books, e[0], e[1], 1)
		if bad == v2Books {
			t.Fatalf("%s: edit does not apply", name)
		}
		if err := b.RestoreLedger(strings.NewReader(bad)); err == nil {
			t.Errorf("%s accepted: %s", name, bad)
		}
	}
	for _, trailing := range []string{"garbage", v2Books} {
		if err := b.RestoreLedger(strings.NewReader(v2Books + "\n" + trailing)); err == nil {
			t.Fatalf("v2 snapshot followed by %q accepted", trailing)
		}
	}
	// Every truncation of a real v2 snapshot's JSON value (SaveLedger ends
	// it with a newline, which a reader does not need).
	withSales := NewBroker(84)
	o := listRegression(t, withSales)
	buyN(t, withSales, o.Name, 2)
	var snap bytes.Buffer
	if err := withSales.SaveLedger(&snap); err != nil {
		t.Fatal(err)
	}
	value := bytes.TrimSpace(snap.Bytes())
	for cut := 0; cut < len(value); cut++ {
		if err := b.RestoreLedger(bytes.NewReader(value[:cut])); err == nil {
			t.Fatalf("v2 snapshot truncated to %d of %d bytes accepted", cut, len(value))
		}
	}
	requireEmpty()

	// Non-empty broker, whichever format would restore over it.
	for _, snap := range []string{`{"version": 1, "sales": []}`, v2Books} {
		if err := withSales.RestoreLedger(strings.NewReader(snap)); err == nil {
			t.Fatalf("restore of %s over a non-empty ledger accepted", snap)
		}
	}
	if withSales.SaleCount() != 2 {
		t.Fatalf("refused restore changed the books: %d sales", withSales.SaleCount())
	}
}

// TestBooksRetainNoSales checks that a broker's memory and its compaction
// snapshot are bounded by its offerings, not by how many sales it made:
// the books keep running totals, and the sales themselves live only in
// the journal.
func TestBooksRetainNoSales(t *testing.T) {
	const sales = 20000
	b := NewBroker(86)
	o := listSmall(t, b, "retain", 60)
	buy := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := b.BuyAtQuality(o.Name, "squared", float64(1+i%5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshotBytes := func() int {
		var buf bytes.Buffer
		if err := b.SaveLedger(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	buy(10)
	small := snapshotBytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	buy(10000 - 10)
	large := snapshotBytes()
	buy(sales - (10000 - 10))
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := b.SaleCount(); got != sales+10 {
		t.Fatalf("books hold %d sales, want %d", got, sales+10)
	}
	perSale := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / sales
	t.Logf("%.2f B retained per sale; the snapshot is %d B after 10 sales, %d B after 10000", perSale, small, large)
	if perSale >= 8 {
		t.Errorf("the heap retained %.1f B per sale over %d sales, want < 8", perSale, sales)
	}
	if d := large - small; d < -64 || d > 64 {
		t.Errorf("the snapshot is %d B after 10 sales and %d B after 10000, want within 64 B", small, large)
	}
}

func TestOfferingSnapshot(t *testing.T) {
	b := NewBroker(85)
	o := listRegression(t, b)
	snap := o.Snapshot()
	if snap.Name != o.Name || snap.Model != "linear-regression" || snap.Mechanism != "gaussian" {
		t.Fatalf("snapshot %+v", snap)
	}
	if !snap.ArbitrageFree {
		t.Fatal("snapshot must confirm arbitrage-freeness")
	}
	if len(snap.PricePoints) != 20 {
		t.Fatalf("%d price points", len(snap.PricePoints))
	}

	data, err := json.Marshal([]OfferingSnapshot{snap})
	if err != nil {
		t.Fatal(err)
	}
	var decoded []OfferingSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0].Name != o.Name {
		t.Fatalf("decoded %+v", decoded)
	}
}
