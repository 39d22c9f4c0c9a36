package market

import (
	"fmt"
	"io"
	"sort"
)

// Statement is the broker's periodic accounting report: per-offering sales,
// gross revenue, commission and the payout owed to the seller.
type Statement struct {
	Lines      []StatementLine `json:"lines"`
	Sales      int             `json:"sales"`
	Gross      float64         `json:"gross"`
	BrokerFees float64         `json:"broker_fees"`
	Payouts    float64         `json:"payouts"`
}

// StatementLine is one offering's row.
type StatementLine struct {
	Offering string  `json:"offering"`
	Sales    int     `json:"sales"`
	Gross    float64 `json:"gross"`
	Fees     float64 `json:"fees"`
	Payout   float64 `json:"payout"`
}

// Statement builds the accounting report from the running books —
// O(offerings), never a ledger rescan. rescanStatement (test-only)
// rebuilds the identical report from the raw ledger so the two stay
// bit-for-bit cross-checkable.
func (b *Broker) Statement() *Statement {
	b.mu.RLock()
	st := &Statement{
		Sales:      len(b.sales),
		Gross:      b.revenue,
		BrokerFees: b.fees,
		Payouts:    b.payout,
	}
	for name, bk := range b.books {
		st.Lines = append(st.Lines, StatementLine{
			Offering: name,
			Sales:    bk.sales,
			Gross:    bk.gross,
			Fees:     bk.fees,
			Payout:   bk.payout,
		})
	}
	b.mu.RUnlock()
	sort.Slice(st.Lines, func(i, j int) bool { return st.Lines[i].Offering < st.Lines[j].Offering })
	return st
}

// rescanStatement rebuilds the statement from the raw ledger. It exists
// only as the audit cross-check for the running books: it replays the
// sales in ledger order — the order recordLocked folded them into the
// books — so a correct broker produces a bit-identical Statement both
// ways. Production reads go through Statement; tests assert the
// equivalence.
func (b *Broker) rescanStatement() *Statement {
	st := &Statement{}
	lines := map[string]*StatementLine{}
	b.mu.RLock()
	for _, p := range b.sales {
		line, ok := lines[p.Offering]
		if !ok {
			line = &StatementLine{Offering: p.Offering}
			lines[p.Offering] = line
		}
		line.Sales++
		line.Gross += p.Price
		line.Fees += p.BrokerFee
		line.Payout += p.SellerProceeds
		st.Sales++
		st.Gross += p.Price
		st.BrokerFees += p.BrokerFee
		st.Payouts += p.SellerProceeds
	}
	b.mu.RUnlock()
	for _, line := range lines {
		st.Lines = append(st.Lines, *line)
	}
	sort.Slice(st.Lines, func(i, j int) bool { return st.Lines[i].Offering < st.Lines[j].Offering })
	return st
}

// Write renders the statement as a fixed-width report.
func (s *Statement) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-40s %8s %12s %12s %12s\n",
		"offering", "sales", "gross", "fees", "payout"); err != nil {
		return err
	}
	for _, l := range s.Lines {
		if _, err := fmt.Fprintf(w, "%-40s %8d %12.2f %12.2f %12.2f\n",
			l.Offering, l.Sales, l.Gross, l.Fees, l.Payout); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-40s %8d %12.2f %12.2f %12.2f\n",
		"TOTAL", s.Sales, s.Gross, s.BrokerFees, s.Payouts)
	return err
}
