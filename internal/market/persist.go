package market

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nimbus/internal/pricing"
)

// Persistence: the broker's financial state (the sale ledger) and the
// audit-relevant shape of each offering can be saved and restored as JSON,
// so a production broker survives restarts without losing its books. On
// startup each offering is relisted from its source (see
// internal/registry): datasets and trained models are rebuilt, and the
// error curves it served are passed back in through OfferingConfig.Curves
// instead of being re-estimated. Only the ledger is irreplaceable state.

// LedgerSnapshot is the serialized sale ledger.
type LedgerSnapshot struct {
	// Version guards the on-disk format.
	Version int        `json:"version"`
	Sales   []Purchase `json:"sales"`
}

// ledgerVersion is the current snapshot format.
const ledgerVersion = 1

// SaveLedger writes the sale ledger as JSON.
func (b *Broker) SaveLedger(w io.Writer) error {
	snap := LedgerSnapshot{Version: ledgerVersion, Sales: b.Sales()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("market: saving ledger: %w", err)
	}
	return nil
}

// RestoreLedger replaces the broker's ledger with a previously saved
// snapshot. It refuses snapshots from unknown format versions and refuses
// to clobber a non-empty ledger (restore belongs at startup).
func (b *Broker) RestoreLedger(r io.Reader) error {
	var snap LedgerSnapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("market: reading ledger snapshot: %w", err)
	}
	if snap.Version != ledgerVersion {
		return fmt.Errorf("market: ledger snapshot version %d, want %d", snap.Version, ledgerVersion)
	}
	// Hold mu across the emptiness check and the inserts so they are one
	// atomic step; restore runs at startup, so the lock is uncontended.
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sales) > 0 {
		return errors.New("market: refusing to restore over a non-empty ledger")
	}
	for _, p := range snap.Sales {
		b.recordLocked(p)
	}
	return nil
}

// saleRecord is the envelope for one journaled purchase. The version
// field guards the record format the same way LedgerSnapshot.Version
// guards the snapshot format.
type saleRecord struct {
	Version  int      `json:"v"`
	Purchase Purchase `json:"purchase"`
}

// saleRecordVersion is the current journal record format.
const saleRecordVersion = 1

// MarshalSale encodes one purchase as a journal record.
//
//lint:allocok the encoded record is the function's product; json.Marshal boxes its argument by contract
func MarshalSale(p Purchase) ([]byte, error) {
	rec, err := json.Marshal(saleRecord{Version: saleRecordVersion, Purchase: p})
	if err != nil {
		return nil, fmt.Errorf("market: encoding sale record: %w", err)
	}
	return rec, nil
}

// UnmarshalSale decodes a journal record produced by MarshalSale. It
// refuses unknown format versions and unknown fields, mirroring
// RestoreLedger: replaying a record we do not fully understand could
// misstate the books.
func UnmarshalSale(rec []byte) (Purchase, error) {
	var sr saleRecord
	dec := json.NewDecoder(bytes.NewReader(rec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		return Purchase{}, fmt.Errorf("market: decoding sale record: %w", err)
	}
	if sr.Version != saleRecordVersion {
		return Purchase{}, fmt.Errorf("market: sale record version %d, want %d", sr.Version, saleRecordVersion)
	}
	return sr.Purchase, nil
}

// OfferingSnapshot is the audit view of one listing: everything a
// regulator (or the seller) needs to verify what was offered at which
// price, without the raw dataset.
type OfferingSnapshot struct {
	Name            string          `json:"name"`
	Model           string          `json:"model"`
	Mechanism       string          `json:"mechanism"`
	Losses          []string        `json:"losses"`
	PricePoints     []pricing.Point `json:"price_points"`
	ExpectedRevenue float64         `json:"expected_revenue"`
	ArbitrageFree   bool            `json:"arbitrage_free"`
}

// Snapshot captures the offering's audit view.
func (o *Offering) Snapshot() OfferingSnapshot {
	return OfferingSnapshot{
		Name:            o.Name,
		Model:           o.Model.Name(),
		Mechanism:       o.Mechanism.Name(),
		Losses:          o.LossNames(),
		PricePoints:     o.PriceFunc.Points(),
		ExpectedRevenue: o.ExpectedRevenue,
		ArbitrageFree:   o.PriceFunc.Validate() == nil,
	}
}

// SaveOfferings writes the audit snapshot of every listing as JSON.
func (b *Broker) SaveOfferings(w io.Writer) error {
	names := b.Menu()
	snaps := make([]OfferingSnapshot, 0, len(names))
	for _, name := range names {
		o, err := b.Offering(name)
		if err != nil {
			continue
		}
		snaps = append(snaps, o.Snapshot())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snaps); err != nil {
		return fmt.Errorf("market: saving offerings: %w", err)
	}
	return nil
}
