package market

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nimbus/internal/pricing"
	"nimbus/internal/rng"
	"nimbus/internal/telemetry"
)

// Broker mediates between sellers and buyers: it lists offerings, serves
// price–error curves, and executes purchases by perturbing the pre-trained
// optimal instance — no retraining per sale, which is what makes the
// marketplace real-time (Section 1, "Our Solution").
//
// A Broker is safe for concurrent use. One RWMutex guards the menu and
// the books: a purchase reads everything it needs from the menu in one
// read-locked section, and durable sales batch through one commit queue,
// so concurrent buyers share a journal write and fsync. Partitioning lives
// one level up: the registry gives each tenant its own broker, books and
// journal.
type Broker struct {
	// mu guards the menu (offerings, the sorted names, the commission
	// rate, the journal and telemetry handles) and the books, running
	// totals folded from every sale in acknowledgement order; the sales
	// themselves live only in the journal. Menu writers (List,
	// SetCommission, SetJournal, SetTelemetry) and the books fold take it
	// exclusively. A listed *Offering is never written after it is
	// published, so a buyer keeps using the one it read after unlocking.
	mu         sync.RWMutex
	offerings  map[string]*Offering      // guarded by mu
	names      []string                  // guarded by mu; the menu, kept sorted by List
	commission float64                   // guarded by mu; the broker's cut of each sale
	journal    SaleJournal               // guarded by mu; nil keeps sales in memory only
	tel        brokerTelemetry           // guarded by mu
	books      map[string]*StatementLine // guarded by mu; per-offering running totals
	total      StatementLine             // guarded by mu; all offerings, with the sale count

	// src is the sale-time noise source, seeded at NewBroker so draws are
	// replayable.
	src *rng.Locked

	// jmu guards the commit queue. The queue exists so that the
	// write-ahead pair (journal append, then books fold) keeps one order
	// without holding any lock across the journal I/O: concurrent sales
	// enqueue under jmu, one caller becomes the batch's leader, journals
	// the whole batch with jmu released, then folds the batch into the
	// books in enqueue order. jmu is never held together with mu,
	// but the declared order documents that jmu work precedes mu work on
	// the sale path:
	//
	//lint:lockorder jmu < mu
	jmu      sync.Mutex
	jcond    *sync.Cond   // signals batch completion; waiters re-check their batch
	jbatch   *commitBatch // guarded by jmu; the batch accumulating sales
	jleading bool         // guarded by jmu; a leader is journaling a batch
}

// commitBatch is one in-flight group of sales. Its fields are owned by
// jmu until the batch is stolen by its leader; recs and sales are then
// read only by that leader until done is set.
type commitBatch struct {
	recs  [][]byte
	sales []Purchase
	err   error // the whole-batch verdict: a batch is journaled all-or-nothing
	done  bool
}

// SaleJournal is the broker's durability hook: an append-only log that
// must acknowledge a run of encoded Purchases, all or nothing, before the
// sales become visible in the books. internal/journal's *Journal
// satisfies it; the commit queue hands it one batch per call.
type SaleJournal interface {
	AppendMany(recs [][]byte) error
}

// ErrJournal wraps a failure to make a sale durable. The sale is refused:
// a purchase the crash-recovery story cannot replay must not be handed to
// the buyer.
var ErrJournal = errors.New("market: sale journal append failed")

// SetJournal directs every subsequent purchase through j (write-ahead:
// append first, then books). A nil j turns journaling back off. Set it
// at startup, after replaying recovered sales.
func (b *Broker) SetJournal(j SaleJournal) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.journal = j
}

// ReplaySale folds a recovered purchase into the books without drawing
// noise, charging, or re-journaling: it is the restart-time inverse of
// finalize, fed from the journal. Per-offering sale counters are not
// re-incremented — telemetry counts this process's sales, the books count
// all of them.
func (b *Broker) ReplaySale(p Purchase) {
	b.record(p)
}

// brokerTelemetry bundles the broker's metric handles so the hot path
// never goes through registry lookups. The handles are nil-safe, so an
// uninstrumented broker pays only nil checks on the sale path.
type brokerTelemetry struct {
	reg       *telemetry.Registry
	revenue   *telemetry.FloatCounter
	fees      *telemetry.FloatCounter
	noiseDraw *telemetry.Histogram
}

// SetTelemetry points the broker's sale metrics at reg: purchase counts
// per offering, revenue and commission totals, rejected purchases by
// reason, and the noise-draw latency histogram. Sales already past their
// menu read finish on the handles they read.
func (b *Broker) SetTelemetry(reg *telemetry.Registry) {
	reg.Help("nimbus_purchases_total", "Completed sales by offering.")
	reg.Help("nimbus_revenue_total", "Gross revenue across all sales.")
	reg.Help("nimbus_broker_fees_total", "Commission kept by the broker.")
	reg.Help("nimbus_purchase_rejects_total", "Purchases refused, by reason.")
	reg.Help("nimbus_noise_draw_seconds", "Latency of per-sale noise perturbation.")
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tel = brokerTelemetry{
		reg:       reg,
		revenue:   reg.FloatCounter("nimbus_revenue_total"),
		fees:      reg.FloatCounter("nimbus_broker_fees_total"),
		noiseDraw: reg.Histogram("nimbus_noise_draw_seconds", nil),
	}
	// Existing listings get their per-offering sale counter attached now;
	// later listings get theirs in List. Caching the handle on the
	// offering keeps registry lookups off the sale path. A buyer may still
	// hold a listed offering after unlocking, so each gets the counter on a
	// copy that replaces it in the menu.
	for name, o := range b.offerings {
		oc := *o
		//lint:ignore telemetry-label-literal offering names come from the seller-curated menu, not from buyer requests, so the series set is bounded by listings
		oc.sales = reg.Counter("nimbus_purchases_total", "offering", o.Name)
		b.offerings[name] = &oc
	}
}

// reject classifies a failed purchase for telemetry. It keeps label
// cardinality bounded by mapping errors onto a fixed reason set.
func (t brokerTelemetry) reject(err error) {
	if t.reg == nil || err == nil {
		return
	}
	reason := "invalid"
	switch {
	case errors.Is(err, ErrUnknownOffering):
		reason = "unknown-offering"
	case errors.Is(err, pricing.ErrUnattainable):
		reason = "unattainable"
	case errors.Is(err, pricing.ErrOverBudget):
		reason = "over-budget"
	case errors.Is(err, ErrJournal):
		reason = "journal"
	}
	//lint:ignore telemetry-label-literal reason is mapped onto the fixed four-value set above before it reaches the registry
	t.reg.Counter("nimbus_purchase_rejects_total", "reason", reason).Inc()
}

// Purchase is a completed sale: the sold instance plus its receipt.
type Purchase struct {
	// Offering and Loss identify what was bought.
	Offering string  `json:"offering"`
	Loss     string  `json:"loss"`
	X        float64 `json:"x"`     // purchased quality (1/NCP)
	NCP      float64 `json:"ncp"`   // noise control parameter δ
	Price    float64 `json:"price"` // amount charged
	// BrokerFee is the broker's commission (Figure 1: the broker "gets a
	// cut from the seller for each sale"); SellerProceeds is the rest.
	BrokerFee      float64 `json:"broker_fee"`
	SellerProceeds float64 `json:"seller_proceeds"`
	// ExpectedError is the curve's expected reporting error at X.
	ExpectedError float64 `json:"expected_error"`
	// Weights is the noisy model instance delivered to the buyer.
	Weights []float64 `json:"weights"`
}

// ErrUnknownOffering is wrapped when a buyer names an unlisted offering.
var ErrUnknownOffering = errors.New("market: unknown offering")

// NewBroker returns an empty broker whose sale-time noise is seeded with
// seed.
func NewBroker(seed int64) *Broker {
	b := &Broker{src: rng.NewLocked(seed)}
	b.jcond = sync.NewCond(&b.jmu)
	// No other goroutine can reach b yet, but the maps are mu-guarded, so
	// honor the contract anyway — one uncontended lock at startup.
	b.mu.Lock()
	b.offerings = make(map[string]*Offering)
	b.books = make(map[string]*StatementLine)
	b.mu.Unlock()
	return b
}

// SetCommission sets the broker's cut of every sale as a fraction in
// [0, 1). It applies to subsequent purchases; sales already in the books
// keep the rate they were sold under.
func (b *Broker) SetCommission(rate float64) error {
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("market: commission %v outside [0, 1)", rate)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.commission = rate
	return nil
}

// List runs the full pipeline for a new offering and adds it to the menu.
// The returned offering is also retrievable by name.
func (b *Broker) List(cfg OfferingConfig) (*Offering, error) {
	o, err := newOffering(cfg)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.offerings[o.Name]; dup {
		return nil, fmt.Errorf("market: offering %s already listed", o.Name)
	}
	if b.tel.reg != nil {
		//lint:ignore telemetry-label-literal offering names come from the seller-curated menu, not from buyer requests, so the series set is bounded by listings
		o.sales = b.tel.reg.Counter("nimbus_purchases_total", "offering", o.Name)
	}
	b.offerings[o.Name] = o
	b.names = append(b.names, o.Name)
	sort.Strings(b.names)
	return o, nil
}

// Menu returns the listed offering names, sorted.
func (b *Broker) Menu() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]string(nil), b.names...)
}

// Offering looks up a listed offering by name.
func (b *Broker) Offering(name string) (*Offering, error) {
	b.mu.RLock()
	o := b.offerings[name]
	b.mu.RUnlock()
	if o == nil {
		return nil, unknownOffering(name)
	}
	return o, nil
}

func unknownOffering(name string) error {
	return fmt.Errorf("market: %q: %w", name, ErrUnknownOffering)
}

// buyMode selects which of the paper's three purchase options buy
// executes. An enum instead of a pick-closure keeps the per-request
// path free of closure allocations.
type buyMode uint8

const (
	buyAtQuality buyMode = iota
	buyErrorBudget
	buyPriceBudget
)

// BuyAtQuality executes the buyer's first option: purchase the version at
// quality x on the (offering, loss) curve.
func (b *Broker) BuyAtQuality(offering, loss string, x float64) (*Purchase, error) {
	return b.buy(offering, loss, buyAtQuality, x)
}

// BuyWithErrorBudget executes the buyer's second option: the cheapest
// version whose expected error is at most budget.
func (b *Broker) BuyWithErrorBudget(offering, loss string, budget float64) (*Purchase, error) {
	return b.buy(offering, loss, buyErrorBudget, budget)
}

// BuyWithPriceBudget executes the buyer's third option: the most accurate
// version whose price is within budget.
func (b *Broker) BuyWithPriceBudget(offering, loss string, budget float64) (*Purchase, error) {
	return b.buy(offering, loss, buyPriceBudget, budget)
}

// saleTerms is what one sale reads from the menu besides its offering,
// all in the same read-locked section, so a concurrent SetCommission or
// SetJournal cannot split a sale across two rates or two journals.
type saleTerms struct {
	commission float64
	journal    SaleJournal
	tel        brokerTelemetry
}

// buy resolves the offering and curve, refuses a non-finite quality or
// budget, picks the purchase point per the buyer's option, and finalizes
// the sale, recording any refusal for telemetry.
func (b *Broker) buy(offering, loss string, mode buyMode, arg float64) (*Purchase, error) {
	b.mu.RLock()
	o := b.offerings[offering]
	terms := saleTerms{commission: b.commission, journal: b.journal, tel: b.tel}
	b.mu.RUnlock()
	if o == nil {
		err := unknownOffering(offering)
		terms.tel.reject(err)
		return nil, err
	}
	c, err := o.Curve(loss)
	if err != nil {
		terms.tel.reject(err)
		return nil, err
	}
	if math.IsNaN(arg) || math.IsInf(arg, 0) {
		err := fmt.Errorf("market: purchase value %v is not finite", arg)
		terms.tel.reject(err)
		return nil, err
	}
	var pt pricing.PriceErrorPoint
	switch mode {
	case buyAtQuality:
		pt = c.PointAt(arg)
	case buyErrorBudget:
		pt, err = c.PointForErrorBudget(arg)
	default:
		pt, err = c.PointForPriceBudget(arg)
	}
	if err != nil {
		terms.tel.reject(err)
		return nil, err
	}
	return b.finalize(o, loss, pt, terms)
}

// finalize samples the noisy instance from the broker's stream, makes the
// sale durable (when a journal is set, the encoded purchase is appended
// and acknowledged before it becomes visible), folds it into the books
// and returns the purchase. The purchase record is marshalled here,
// outside every lock — only the journal I/O and the books fold are
// serialized, through the commit queue.
func (b *Broker) finalize(o *Offering, loss string, pt pricing.PriceErrorPoint, terms saleTerms) (*Purchase, error) {
	if pt.X <= 0 {
		err := fmt.Errorf("market: purchase at non-positive quality %v", pt.X)
		terms.tel.reject(err)
		return nil, err
	}
	delta := 1 / pt.X
	drawStart := time.Now()
	weights := o.Mechanism.Perturb(o.Optimal, delta, b.src.Split())
	terms.tel.noiseDraw.Observe(time.Since(drawStart).Seconds())
	fee := terms.commission * pt.Price
	p := Purchase{
		Offering:       o.Name,
		Loss:           loss,
		X:              pt.X,
		NCP:            delta,
		Price:          pt.Price,
		BrokerFee:      fee,
		SellerProceeds: pt.Price - fee,
		ExpectedError:  pt.Error,
		Weights:        weights,
	}
	if terms.journal != nil {
		rec, err := MarshalSale(p)
		if err == nil {
			err = b.commit(terms.journal, rec, p)
		}
		if err != nil {
			err = fmt.Errorf("%w: %v", ErrJournal, err)
			terms.tel.reject(err)
			return nil, err
		}
	} else {
		b.record(p)
	}
	o.sales.Inc()
	terms.tel.revenue.Add(pt.Price)
	terms.tel.fees.Add(fee)
	return &p, nil
}

// commit runs one sale through the broker's commit queue: write-ahead
// (journal append acknowledged first), then visible (books fold), with
// the books folded in journal order. The sale joins the forming batch;
// the first caller that finds no flush in flight leads the batch — one
// journal call and one books fold for everyone — while later arrivals
// accumulate the next batch. No lock is held across the journal I/O.
func (b *Broker) commit(j SaleJournal, rec []byte, p Purchase) error {
	b.jmu.Lock()
	if b.jbatch == nil {
		b.jbatch = &commitBatch{}
	}
	bt := b.jbatch
	bt.recs = append(bt.recs, rec)
	bt.sales = append(bt.sales, p)
	for b.jleading && !bt.done {
		b.jcond.Wait()
	}
	if bt.done {
		// Another caller led our batch while we waited; its verdict is
		// ours.
		err := bt.err
		b.jmu.Unlock()
		return err
	}
	// No leader in flight and our batch not yet flushed: lead it.
	b.jleading = true
	b.jbatch = nil
	b.jmu.Unlock()

	bt.err = j.AppendMany(bt.recs)
	if bt.err == nil {
		b.record(bt.sales...)
	}

	b.jmu.Lock()
	bt.done = true
	b.jleading = false
	b.jcond.Broadcast()
	b.jmu.Unlock()
	return bt.err
}

// record folds a run of purchases, in order, into the running books under
// one lock acquisition. The books are all that Statement, Payouts,
// TotalFees, TotalRevenue and SaleCount read; the purchases are not kept.
func (b *Broker) record(ps ...Purchase) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range ps {
		bk := b.books[p.Offering]
		if bk == nil {
			bk = &StatementLine{Offering: p.Offering}
			b.books[p.Offering] = bk
		}
		bk.add(p)
		b.total.add(p)
	}
}

// Payouts returns the seller proceeds accumulated per offering — what the
// broker owes each seller after taking its cut. The result is a fresh map
// copied from the running books.
func (b *Broker) Payouts() map[string]float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string]float64, len(b.books))
	for name, bk := range b.books {
		out[name] = bk.Payout
	}
	return out
}

// TotalFees reports the broker's commission earnings.
func (b *Broker) TotalFees() float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.total.Fees
}

// TotalRevenue reports gross revenue.
func (b *Broker) TotalRevenue() float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.total.Gross
}

// SaleCount reports how many sales the books hold.
func (b *Broker) SaleCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.total.Sales
}
