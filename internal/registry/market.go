package registry

import (
	"errors"
	"fmt"
	"sync"

	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/telemetry"
)

// Errors the registry reports; the server layer maps them onto HTTP codes.
var (
	// ErrBadID rejects a dataset ID that fails ValidID.
	ErrBadID = errors.New("registry: invalid dataset id")
	// ErrUnknownMarket means no live market has the requested ID.
	ErrUnknownMarket = errors.New("registry: unknown market")
	// ErrMarketExists rejects listing a dataset ID already live (or being
	// listed/delisted right now).
	ErrMarketExists = errors.New("registry: market already exists")
	// ErrDelisting rejects purchases on a market that is draining or gone;
	// in-flight buys complete, new ones get this.
	ErrDelisting = errors.New("registry: market is being delisted")
	// ErrTooManyMarkets enforces Config.MaxMarkets — the bound that keeps
	// the per-market telemetry label cardinality finite.
	ErrTooManyMarkets = errors.New("registry: market limit reached")
	// errClosed rejects lifecycle work once Close has begun.
	errClosed = errors.New("registry: closed")
	// ErrBadOption rejects a purchase option outside the paper's three
	// interaction modes.
	ErrBadOption = errors.New("registry: unknown purchase option (want quality, error-budget or price-budget)")
)

// Market is one tenant's live marketplace: its own broker (one ledger and
// one commit queue), pricing curves, and (when the registry is durable)
// its own journal directory. Markets are created by Registry.List or
// recovered by Open, and torn down by Delist — callers outside the
// package interact with the exported fields read-only and purchase
// through Buy, which participates in the drain protocol.
type Market struct {
	// ID is the dataset ID the market is keyed by.
	ID string
	// Spec is the normalized listing the market was built from.
	Spec Spec
	// Broker is the tenant's own broker, carrying exactly the offering
	// this tenant listed.
	Broker *market.Broker

	jnl *journal.Journal // nil when the registry is memory-only

	mu       sync.Mutex
	draining bool           // guarded by mu; set once by drain, never cleared
	inflight sync.WaitGroup // purchases admitted before draining was set

	sales   *telemetry.Counter      // per-market purchase count; nil without telemetry
	revenue *telemetry.FloatCounter // per-market gross revenue
}

// newMarket wires the lifecycle plumbing around a freshly built broker.
//
//lint:transfers the Market owns the journal from here; Registry.retire (Delist and Close) is the release path
func newMarket(spec Spec, b *market.Broker, jnl *journal.Journal, reg *telemetry.Registry) *Market {
	m := &Market{ID: spec.ID, Spec: spec, Broker: b, jnl: jnl}
	if reg != nil {
		// The market label is buyer-invisible: IDs pass ValidID and the
		// live set is capped at Config.MaxMarkets, so the series set is
		// bounded by listings, not by request traffic.
		//lint:ignore telemetry-label-literal market IDs pass ValidID and the live set is capped at Config.MaxMarkets, so label cardinality is bounded by listings, not requests
		m.sales = reg.Counter("nimbus_market_purchases_total", "market", spec.ID)
		//lint:ignore telemetry-label-literal market IDs pass ValidID and the live set is capped at Config.MaxMarkets, so label cardinality is bounded by listings, not requests
		m.revenue = reg.FloatCounter("nimbus_market_revenue_total", "market", spec.ID)
		reg.Help("nimbus_market_purchases_total", "Completed purchases per tenant market.")
		reg.Help("nimbus_market_revenue_total", "Gross sale revenue per tenant market.")
	}
	return m
}

// acquire admits a purchase into the in-flight group; it fails once the
// market has started draining, so Delist and Close can guarantee the
// ledger is quiescent before the final compaction. Every Add happens
// under mu before drain sets the flag, so none races Wait.
func (m *Market) acquire() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return fmt.Errorf("%w: %s", ErrDelisting, m.ID)
	}
	m.inflight.Add(1)
	return nil
}

// drain rejects new purchases and blocks until every admitted one has
// finished. Idempotent; callers then own the quiescent broker and
// journal.
func (m *Market) drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.inflight.Wait()
}

// Buy executes one purchase in the tenant's market. option selects the
// paper's interaction mode: "quality" (value is the offered grid point),
// "error-budget" or "price-budget" (value is the budget). The purchase is
// tracked in-flight so a concurrent Delist drains rather than races.
func (m *Market) Buy(offering, loss, option string, value float64) (*market.Purchase, error) {
	if !validOption(option) {
		return nil, fmt.Errorf("%w: %q", ErrBadOption, option)
	}
	if err := m.acquire(); err != nil {
		return nil, err
	}
	defer m.inflight.Done()
	var p *market.Purchase
	var err error
	switch option {
	case "quality":
		p, err = m.Broker.BuyAtQuality(offering, loss, value)
	case "error-budget":
		p, err = m.Broker.BuyWithErrorBudget(offering, loss, value)
	default: // price-budget; validOption already vetted the set
		p, err = m.Broker.BuyWithPriceBudget(offering, loss, value)
	}
	if err != nil {
		return nil, err
	}
	if m.sales != nil {
		m.sales.Inc()
		m.revenue.Add(p.Price)
	}
	return p, nil
}

// Statement reports the tenant's accounting from its broker's running
// books.
func (m *Market) Statement() *market.Statement { return m.Broker.Statement() }
