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

// add folds one sale into the line's running totals.
func (l *StatementLine) add(p Purchase) {
	l.Sales++
	l.Gross += p.Price
	l.Fees += p.BrokerFee
	l.Payout += p.SellerProceeds
}

// Statement builds the accounting report from the running books —
// O(offerings), however many sales there were.
func (b *Broker) Statement() *Statement {
	b.mu.RLock()
	t := b.total
	st := &Statement{Sales: t.Sales, Gross: t.Gross, BrokerFees: t.Fees, Payouts: t.Payout}
	for _, bk := range b.books {
		st.Lines = append(st.Lines, *bk)
	}
	b.mu.RUnlock()
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
