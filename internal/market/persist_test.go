package market

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestLedgerSaveRestoreRoundTrip(t *testing.T) {
	b := NewBroker(81)
	o := listRegression(t, b)
	for i := 0; i < 3; i++ {
		if _, err := b.BuyAtQuality(o.Name, "squared", 5); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := b.SaveLedger(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewBroker(82)
	if err := fresh.RestoreLedger(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Sales()) != 3 {
		t.Fatalf("restored %d sales", len(fresh.Sales()))
	}
	if fresh.TotalRevenue() != b.TotalRevenue() {
		t.Fatalf("revenue %v vs %v", fresh.TotalRevenue(), b.TotalRevenue())
	}
	// Weights survive exactly.
	if len(fresh.Sales()[0].Weights) != 9 {
		t.Fatal("weights lost")
	}
}

func TestRestoreLedgerRejects(t *testing.T) {
	b := NewBroker(83)
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
	if len(b.Sales()) != 0 {
		t.Fatal("failed restores must leave the ledger empty")
	}
	// Wrong version.
	if err := b.RestoreLedger(strings.NewReader(`{"version": 99, "sales": []}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Unknown fields.
	if err := b.RestoreLedger(strings.NewReader(`{"version": 1, "sales": [], "extra": true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Anything after the snapshot: junk, or a second snapshot.
	for _, trailing := range []string{"garbage", `{"version": 1, "sales": []}`} {
		if err := b.RestoreLedger(strings.NewReader(whole + "\n" + trailing)); err == nil {
			t.Fatalf("snapshot followed by %q accepted", trailing)
		}
	}
	if len(b.Sales()) != 0 {
		t.Fatal("failed restores must leave the ledger empty")
	}
	// Non-empty ledger.
	withSales := NewBroker(84)
	o := listRegression(t, withSales)
	if _, err := withSales.BuyAtQuality(o.Name, "squared", 2); err != nil {
		t.Fatal(err)
	}
	if err := withSales.RestoreLedger(strings.NewReader(`{"version": 1, "sales": []}`)); err == nil {
		t.Fatal("restore over non-empty ledger accepted")
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

	var buf bytes.Buffer
	if err := b.SaveOfferings(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []OfferingSnapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0].Name != o.Name {
		t.Fatalf("decoded %+v", decoded)
	}
}
