package market

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"nimbus/internal/pricing"
)

// Persistence: the broker's financial state (its books) and the
// audit-relevant shape of each offering can be saved and restored, so a
// production broker survives restarts without losing its books. Each sale
// is journaled as a compact binary record; compaction folds the journaled
// sales into a snapshot of the books, which is JSON, like the offerings.
// On startup each offering is relisted from its source (see
// internal/registry): datasets are rebuilt, and the h* and error curves it
// served are passed back in through OfferingConfig.Optimal and .Curves
// instead of being refit and re-estimated. Only the books are
// irreplaceable state.

// LedgerSnapshot is the serialized books. Version guards the format: v2
// carries the books, v1 (written by earlier builds) every sale instead.
type LedgerSnapshot struct {
	Version int        `json:"version"`
	Books   *Statement `json:"books,omitempty"`
	Sales   []Purchase `json:"sales,omitempty"`
}

const ledgerV1, ledgerV2 = 1, 2

// SaveLedger writes the books as a v2 snapshot, O(offerings). It keeps
// the totals as well as the lines: the totals were folded in sale order,
// so the lines' sums need not equal them bit for bit.
func (b *Broker) SaveLedger(w io.Writer) error {
	snap := LedgerSnapshot{Version: ledgerV2, Books: b.Statement()}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("market: saving ledger: %w", err)
	}
	return nil
}

// RestoreLedger loads a previously saved snapshot into an empty broker's
// books. It refuses unknown format versions, unknown fields and anything
// after the snapshot, books that could not come from folding sales (see
// restoredBooks), and a non-empty broker (restore belongs at startup).
func (b *Broker) RestoreLedger(r io.Reader) error {
	var snap LedgerSnapshot
	if err := decodeJSON(r, &snap); err != nil {
		return fmt.Errorf("market: reading ledger snapshot: %w", err)
	}
	st := snap.Books
	switch {
	case snap.Version == ledgerV1 && st == nil:
		// Fold the sales in snapshot order through the live path, then
		// restore the books they make.
		folded := NewBroker(0)
		folded.record(snap.Sales...)
		st = folded.Statement()
	case snap.Version == ledgerV2 && snap.Sales == nil:
	default:
		return fmt.Errorf("market: ledger snapshot version %d: want version %d with sales or %d with books",
			snap.Version, ledgerV1, ledgerV2)
	}
	books, err := restoredBooks(st)
	if err != nil {
		return fmt.Errorf("market: ledger snapshot: %w", err)
	}
	// Hold mu across the emptiness check and the restore so they are one
	// atomic step; restore runs at startup, so the lock is uncontended.
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.total.Sales > 0 {
		return errors.New("market: refusing to restore over a non-empty ledger")
	}
	b.books = books
	b.total = StatementLine{Sales: st.Sales, Gross: st.Gross, Fees: st.BrokerFees, Payout: st.Payouts}
	return nil
}

// restoredBooks rebuilds the per-offering books from a snapshot's
// statement. It refuses a missing statement, a duplicate offering, a
// non-finite amount, and sale counts that could not come from folding
// sales: a line with no sales, or lines that do not sum to the total, so
// a negative total is refused too.
func restoredBooks(st *Statement) (map[string]*StatementLine, error) {
	if st == nil {
		return nil, errors.New("no books")
	}
	if !finite(st.Gross) || !finite(st.BrokerFees) || !finite(st.Payouts) {
		return nil, errors.New("non-finite totals")
	}
	books := make(map[string]*StatementLine, len(st.Lines))
	left := st.Sales
	for _, l := range st.Lines {
		if _, dup := books[l.Offering]; dup {
			return nil, fmt.Errorf("offering %q listed twice", l.Offering)
		}
		if l.Sales <= 0 || l.Sales > left {
			return nil, fmt.Errorf("offering %q: %d sales do not fit a total of %d", l.Offering, l.Sales, st.Sales)
		}
		if !finite(l.Gross) || !finite(l.Fees) || !finite(l.Payout) {
			return nil, fmt.Errorf("offering %q: non-finite amounts", l.Offering)
		}
		left -= l.Sales
		books[l.Offering] = &l
	}
	if left != 0 {
		return nil, fmt.Errorf("lines hold %d of %d sales", st.Sales-left, st.Sales)
	}
	return books, nil
}

// decodeJSON decodes exactly one JSON value from r into v. It refuses
// unknown fields and any data after the value: a record or snapshot we do
// not fully understand could misstate the books.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// Journaled sale records. The first byte of a record names its format:
//
//	0x02  v2, binary, written by MarshalSale:
//	        offering   uint32 byte length, then the bytes
//	        loss       uint32 byte length, then the bytes
//	        X, NCP, Price, BrokerFee, SellerProceeds, ExpectedError
//	                   six float64s, IEEE 754 bits
//	        weights    uint32 count, then that many float64s
//	      every integer and float little-endian and fixed-width, so a
//	      sale has exactly one encoding.
//	'{'   v1, the JSON object {"v": 1, "purchase": {...}} with Purchase's
//	      json field names, written by earlier builds and still read so
//	      their journals recover.
//
// A v2 record is 61 B plus the two names plus 8 B per weight (813 B for
// a d = 90 YearMSD sale). Its floats are raw bits, so they decode without
// text scanning or parsing and round-trip exactly.
const saleRecordV2 = 0x02

// saleRecord is the v1 JSON envelope for one journaled purchase. The
// version field guards the record format the same way
// LedgerSnapshot.Version guards the snapshot format.
type saleRecord struct {
	Version  int      `json:"v"`
	Purchase Purchase `json:"purchase"`
}

// saleRecordV1 is the only version a JSON sale record may carry.
const saleRecordV1 = 1

// MarshalSale encodes one purchase as a v2 journal record. Like the JSON
// encoding it replaced, it refuses NaN and ±Inf in any float, so such a
// sale is rejected (ErrJournal) rather than journaled.
func MarshalSale(p Purchase) ([]byte, error) {
	scalars := [...]float64{p.X, p.NCP, p.Price, p.BrokerFee, p.SellerProceeds, p.ExpectedError}
	rec := make([]byte, 0, 1+4+len(p.Offering)+4+len(p.Loss)+8*len(scalars)+4+8*len(p.Weights))
	rec = append(rec, saleRecordV2)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(p.Offering)))
	rec = append(rec, p.Offering...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(p.Loss)))
	rec = append(rec, p.Loss...)
	for _, v := range scalars {
		if !finite(v) {
			return nil, fmt.Errorf("market: encoding sale record: unsupported value %v", v)
		}
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(v))
	}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(p.Weights)))
	for _, w := range p.Weights {
		if !finite(w) {
			return nil, fmt.Errorf("market: encoding sale record: unsupported weight %v", w)
		}
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(w))
	}
	return rec, nil
}

// UnmarshalSale decodes a journal record: v2 directly, anything else
// through the v1 JSON decoder. Both refuse what they do not fully
// understand (an unknown version or field, a truncated field, a weight
// count past the end, trailing bytes), mirroring RestoreLedger:
// replaying a record we do not fully understand could misstate the books.
func UnmarshalSale(rec []byte) (Purchase, error) {
	var (
		p   Purchase
		err error
	)
	if len(rec) > 0 && rec[0] == saleRecordV2 {
		p, err = unmarshalSaleV2(rec[1:])
	} else {
		p, err = unmarshalSaleV1(rec)
	}
	if err != nil {
		return Purchase{}, fmt.Errorf("market: decoding sale record: %w", err)
	}
	return p, nil
}

func unmarshalSaleV1(rec []byte) (Purchase, error) {
	var sr saleRecord
	if err := decodeJSON(bytes.NewReader(rec), &sr); err != nil {
		return Purchase{}, err
	}
	if sr.Version != saleRecordV1 {
		return Purchase{}, fmt.Errorf("sale record version %d, want %d", sr.Version, saleRecordV1)
	}
	return sr.Purchase, nil
}

// unmarshalSaleV2 decodes the body of a v2 record, after its version
// byte.
func unmarshalSaleV2(body []byte) (Purchase, error) {
	d := saleDecoder{buf: body}
	var p Purchase
	p.Offering = d.string("offering")
	p.Loss = d.string("loss")
	p.X = d.float("x")
	p.NCP = d.float("ncp")
	p.Price = d.float("price")
	p.BrokerFee = d.float("broker fee")
	p.SellerProceeds = d.float("seller proceeds")
	p.ExpectedError = d.float("expected error")
	n := d.uint32("weight count")
	if d.err == nil && uint64(n) > uint64(len(d.buf)/8) {
		return Purchase{}, fmt.Errorf("weight count %d exceeds the %d bytes left", n, len(d.buf))
	}
	if n > 0 {
		p.Weights = make([]float64, n)
		for i := range p.Weights {
			p.Weights[i] = d.float("weight")
		}
	}
	if d.err == nil && len(d.buf) > 0 {
		return Purchase{}, fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return p, d.err
}

// saleDecoder reads a v2 record body front to back. The first failure
// sticks: later reads return zero values, and err names the field that
// was cut short or malformed.
type saleDecoder struct {
	buf []byte
	err error
}

func (d *saleDecoder) uint32(field string) uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.err = fmt.Errorf("truncated %s", field)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *saleDecoder) string(field string) string {
	n := d.uint32(field)
	if d.err != nil {
		return ""
	}
	if uint64(n) > uint64(len(d.buf)) {
		d.err = fmt.Errorf("truncated %s", field)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// float reads one float64 and refuses NaN and ±Inf, which MarshalSale
// never writes.
func (d *saleDecoder) float(field string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = fmt.Errorf("truncated %s", field)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	if !finite(v) {
		d.err = fmt.Errorf("unsupported %s %v", field, v)
		return 0
	}
	d.buf = d.buf[8:]
	return v
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

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
