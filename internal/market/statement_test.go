package market

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// statementOf folds sales, in order, into the Statement a broker that
// recorded exactly those sales reports. It is the reference for the
// running books: it sums in the same order with the same floating-point
// association, so a correct broker agrees with it bit for bit.
func statementOf(sales []Purchase) *Statement {
	st := &Statement{}
	lines := map[string]*StatementLine{}
	for _, p := range sales {
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
	for _, line := range lines {
		st.Lines = append(st.Lines, *line)
	}
	sort.Slice(st.Lines, func(i, j int) bool { return st.Lines[i].Offering < st.Lines[j].Offering })
	return st
}

func TestStatementAggregation(t *testing.T) {
	b := NewBroker(21)
	o := listRegression(t, b)
	if err := b.SetCommission(0.25); err != nil {
		t.Fatal(err)
	}
	var (
		gross float64
		sales []Purchase
	)
	for i := 0; i < 3; i++ {
		p, err := b.BuyAtQuality(o.Name, "squared", 4)
		if err != nil {
			t.Fatal(err)
		}
		gross += p.Price
		sales = append(sales, *p)
	}
	st := b.Statement()
	if st.Sales != 3 || len(st.Lines) != 1 {
		t.Fatalf("statement %+v", st)
	}
	if math.Abs(st.Gross-gross) > 1e-9 {
		t.Fatalf("gross %v vs %v", st.Gross, gross)
	}
	if math.Abs(st.BrokerFees-0.25*gross) > 1e-9 {
		t.Fatalf("fees %v", st.BrokerFees)
	}
	if math.Abs(st.BrokerFees+st.Payouts-st.Gross) > 1e-9 {
		t.Fatal("fees + payouts != gross")
	}
	line := st.Lines[0]
	if line.Offering != o.Name || line.Sales != 3 {
		t.Fatalf("line %+v", line)
	}
	if want := statementOf(sales); !reflect.DeepEqual(st, want) {
		t.Fatalf("statement from the running books %+v != fold of the sales %+v", st, want)
	}

	var buf bytes.Buffer
	if err := st.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "TOTAL") || !strings.Contains(out, o.Name) {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestStatementEmptyLedger(t *testing.T) {
	b := NewBroker(22)
	st := b.Statement()
	if st.Sales != 0 || len(st.Lines) != 0 || st.Gross != 0 {
		t.Fatalf("empty statement %+v", st)
	}
	var buf bytes.Buffer
	if err := st.Write(&buf); err != nil {
		t.Fatal(err)
	}
}
