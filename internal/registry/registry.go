// Package registry is the Nimbus marketplace: one daemon serving many
// sellers and many datasets. Each listed dataset gets its own Market — a
// dedicated broker with its own pricing curves, ledger and, when the
// registry has a root directory, its own write-ahead journal — keyed by a
// dataset ID. This is where the marketplace is partitioned: tenants never
// share a lock, a ledger or a journal. The registry owns the lifecycle: List trains and prices a
// new market, Delist drains in-flight purchases, compacts the journal and
// archives the tenant directory, and Open recovers every live tenant
// after a restart. A registry with no root is the same marketplace held
// in memory only.
package registry

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/telemetry"
)

// Config tunes a registry.
type Config struct {
	// Root is the registry's data directory, one subdirectory per tenant.
	// Empty means memory-only: no manifests, no journals, nothing survives
	// the process.
	Root string
	// Commission is the broker's cut applied to every tenant market.
	Commission float64
	// MaxMarkets caps the number of live markets (default 64). Together
	// with ID validation this bounds the cardinality of the per-market
	// telemetry label.
	MaxMarkets int
	// Sync, SyncEvery and SegmentBytes configure each tenant's journal;
	// zero values take the journal package defaults (Sync's zero value is
	// SyncAlways).
	Sync         journal.SyncPolicy
	SyncEvery    time.Duration
	SegmentBytes int64
	// Telemetry, when non-nil, receives registry gauges plus per-market
	// purchase and revenue series.
	Telemetry *telemetry.Registry
	// Logf receives progress lines; nil discards them. It is called
	// concurrently: by concurrent Lists, and by Open, which recovers
	// tenants in parallel. log.Printf is safe for that.
	Logf func(format string, args ...any)
}

// DefaultMaxMarkets caps live markets when Config.MaxMarkets is zero.
const DefaultMaxMarkets = 64

// Registry is the concurrent map of live markets. All methods are safe
// for concurrent use; the slow parts of List and Delist (training,
// draining, compaction) run outside the registry lock so other tenants
// keep trading.
type Registry struct {
	cfg Config

	mu      sync.RWMutex
	markets map[string]*Market // guarded by mu; live, purchasable markets
	pending map[string]bool    // guarded by mu; IDs mid-List or mid-Delist
	closed  bool               // guarded by mu

	listed   *telemetry.Counter // nil without telemetry
	delisted *telemetry.Counter
}

// Open builds a registry and, when cfg.Root is set, recovers every live
// tenant found there (manifest rebuild + per-tenant journal replay).
func Open(cfg Config) (*Registry, error) {
	if cfg.MaxMarkets <= 0 {
		cfg.MaxMarkets = DefaultMaxMarkets
	}
	r := &Registry{
		cfg:     cfg,
		markets: make(map[string]*Market),
		pending: make(map[string]bool),
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.GaugeFunc("nimbus_registry_markets", func() float64 {
			r.mu.RLock()
			defer r.mu.RUnlock()
			return float64(len(r.markets))
		})
		reg.Help("nimbus_registry_markets", "Live tenant markets.")
		r.listed = reg.Counter("nimbus_registry_listed_total")
		reg.Help("nimbus_registry_listed_total", "Datasets listed since startup.")
		r.delisted = reg.Counter("nimbus_registry_delisted_total")
		reg.Help("nimbus_registry_delisted_total", "Datasets delisted since startup.")
		reg.Help("nimbus_registry_recover_seconds", "Time each tenant market took to recover at startup. Tenants recover concurrently, so these overlap and do not sum to the startup time.")
	}
	if cfg.Root != "" {
		if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating root %s: %w", cfg.Root, err)
		}
		if err := r.recoverTenants(); err != nil {
			// Tenants recovered before the failure are already published
			// with open journals (and, under SyncInterval, pending flush
			// timers). The caller gets no Registry back, so nothing
			// downstream can release them — close them here.
			if cerr := r.Close(); cerr != nil {
				r.logf("registry: cleanup after failed recovery: %v", cerr)
			}
			return nil, err
		}
	}
	return r, nil
}

func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// List trains, prices and opens a market for one dataset. csvData carries
// the uploaded file for CSV-sourced specs and must be nil otherwise. The
// ID is reserved up front so concurrent Lists of the same ID race safely,
// but the expensive build runs outside the registry lock.
func (r *Registry) List(spec Spec, csvData []byte) (*Market, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	if spec.CSV && len(csvData) == 0 {
		return nil, fmt.Errorf("registry: market %s: csv source with no data", spec.ID)
	}
	if !spec.CSV && csvData != nil {
		return nil, fmt.Errorf("registry: market %s: csv data supplied for a generator source", spec.ID)
	}
	if err := r.reserve(spec.ID); err != nil {
		return nil, err
	}
	return r.listReserved(spec, csvData)
}

// listReserved builds and publishes a market whose ID List has reserved.
// A failed build, or a Close that began during it, leaves nothing behind:
// the journal is closed and the half-listed tenant directory removed.
func (r *Registry) listReserved(spec Spec, csvData []byte) (*Market, error) {
	m, err := r.build(spec, csvData)
	if err == nil {
		if err = r.publish(m); err != nil && m.jnl != nil {
			//lint:ignore no-dropped-error the market never traded; the closed registry is what gets reported
			m.jnl.Close()
		}
	}
	if err != nil {
		r.unreserve(spec.ID)
		if r.cfg.Root != "" {
			//lint:ignore no-dropped-error best-effort cleanup of a half-created tenant dir; the build failure is what gets reported
			removeTenantDir(r.cfg.Root, spec.ID)
		}
		return nil, err
	}
	if r.listed != nil {
		r.listed.Inc()
	}
	r.logf("registry: listed market %s (%s): offerings %v", m.ID, spec.Source(), m.Broker.Menu())
	return m, nil
}

// reserve claims an ID for a lifecycle transition.
func (r *Registry) reserve(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errClosed
	}
	if r.markets[id] != nil || r.pending[id] {
		return fmt.Errorf("%w: %s", ErrMarketExists, id)
	}
	if len(r.markets)+len(r.pending) >= r.cfg.MaxMarkets {
		return fmt.Errorf("%w (max %d)", ErrTooManyMarkets, r.cfg.MaxMarkets)
	}
	r.pending[id] = true
	return nil
}

func (r *Registry) unreserve(id string) {
	r.mu.Lock()
	delete(r.pending, id)
	r.mu.Unlock()
}

// build runs the expensive part of List: train and price the offering,
// persist the tenant directory, open its journal.
func (r *Registry) build(spec Spec, csvData []byte) (*Market, error) {
	b, listed, err := buildBroker(spec, csvData, r.cfg.Commission, terms{})
	if err != nil {
		return nil, err
	}
	if r.cfg.Telemetry != nil {
		b.SetTelemetry(r.cfg.Telemetry)
	}
	var jnl *journal.Journal
	if r.cfg.Root != "" {
		if err := persistTenant(r.cfg.Root, spec, listed, csvData); err != nil {
			return nil, err
		}
		jnl, err = r.openTenantJournal(b, tenantDir(r.cfg.Root, spec.ID))
		if err != nil {
			return nil, err
		}
	}
	return newMarket(spec, b, jnl, r.cfg.Telemetry), nil
}

// publish makes a market purchasable and releases its reservation. It
// fails once Close has begun: Close retires only the markets it saw.
func (r *Registry) publish(m *Market) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pending, m.ID)
	if r.closed {
		return errClosed
	}
	r.markets[m.ID] = m
	return nil
}

// Delist removes a market: it disappears from lookups immediately, new
// purchases are rejected, in-flight purchases drain, the journal gets a
// final compaction and the tenant directory is archived (never deleted).
// Returns the tenant's final statement.
func (r *Registry) Delist(id string) (*market.Statement, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errClosed
	}
	m := r.markets[id]
	if m == nil {
		busy := r.pending[id]
		r.mu.Unlock()
		if busy {
			return nil, fmt.Errorf("%w: %s", ErrDelisting, id)
		}
		return nil, fmt.Errorf("%w: %s", ErrUnknownMarket, id)
	}
	delete(r.markets, id)
	r.pending[id] = true
	r.mu.Unlock()

	err := r.retire(m, true)
	r.unreserve(id)
	st := m.Broker.Statement()
	if err != nil {
		return st, err
	}
	if r.delisted != nil {
		r.delisted.Inc()
	}
	r.logf("registry: delisted market %s: %d sales, revenue %.2f", id, st.Sales, st.Gross)
	return st, nil
}

// retire is the one end of a market's life, for Delist and Close alike:
// drain its purchases, compact and close its journal and, when archive is
// set (Delist), archive its directory. Close leaves the directory live
// for the next Open to recover.
func (r *Registry) retire(m *Market, archive bool) error {
	m.drain()
	if m.jnl != nil {
		if err := m.jnl.Compact(m.Broker.SaveLedger); err != nil {
			// Compaction is an optimization; the appended records are
			// already durable in the segments.
			r.logf("registry: market %s: final compaction failed (ledger remains in segments): %v", m.ID, err)
		}
		if err := m.jnl.Close(); err != nil {
			return fmt.Errorf("registry: closing journal for %s: %w", m.ID, err)
		}
	}
	if archive && r.cfg.Root != "" {
		return archiveTenant(r.cfg.Root, m.ID)
	}
	return nil
}

// Get returns a live market by dataset ID.
func (r *Registry) Get(id string) (*Market, error) {
	r.mu.RLock()
	m := r.markets[id]
	r.mu.RUnlock()
	if m == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownMarket, id)
	}
	return m, nil
}

// IDs lists the live market IDs, sorted.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	ids := make([]string, 0, len(r.markets))
	for id := range r.markets {
		ids = append(ids, id)
	}
	r.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Count reports the number of live markets.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.markets)
}

// Markets lists the live markets, sorted by ID.
func (r *Registry) Markets() []*Market {
	r.mu.RLock()
	markets := make([]*Market, 0, len(r.markets))
	for _, m := range r.markets {
		markets = append(markets, m)
	}
	r.mu.RUnlock()
	sort.Slice(markets, func(i, j int) bool { return markets[i].ID < markets[j].ID })
	return markets
}

// Menu is the union of every live market's offerings, sorted. Offering
// names embed the dataset ID ("<id>/<model>"), so they are unique across
// markets.
func (r *Registry) Menu() []string {
	var names []string
	for _, m := range r.Markets() {
		names = append(names, m.Broker.Menu()...)
	}
	sort.Strings(names)
	return names
}

// MarketStats is one tenant's row in the cross-tenant statement.
type MarketStats struct {
	ID        string   `json:"id"`
	Owner     string   `json:"owner,omitempty"`
	Source    string   `json:"source"`
	Offerings []string `json:"offerings"`
	Sales     int      `json:"sales"`
	Gross     float64  `json:"gross"`
	Fees      float64  `json:"fees"`
	Payouts   float64  `json:"payouts"`
}

// Stats is the marketplace-wide revenue statement: per-tenant rows (from
// each broker's running books, so this is O(markets), not O(ledger)) plus
// the cross-tenant totals.
type Stats struct {
	Markets   int           `json:"markets"`
	Offerings int           `json:"offerings"`
	Sales     int           `json:"sales"`
	Gross     float64       `json:"gross"`
	Fees      float64       `json:"fees"`
	Payouts   float64       `json:"payouts"`
	PerMarket []MarketStats `json:"per_market"`
}

// Stats aggregates every live market's statement.
func (r *Registry) Stats() Stats {
	markets := r.Markets()
	st := Stats{Markets: len(markets)}
	for _, m := range markets {
		ms := m.Broker.Statement()
		row := MarketStats{
			ID:        m.ID,
			Owner:     m.Spec.Owner,
			Source:    m.Spec.Source(),
			Offerings: m.Broker.Menu(),
			Sales:     ms.Sales,
			Gross:     ms.Gross,
			Fees:      ms.BrokerFees,
			Payouts:   ms.Payouts,
		}
		st.PerMarket = append(st.PerMarket, row)
		st.Offerings += len(row.Offerings)
		st.Sales += row.Sales
		st.Gross += row.Gross
		st.Fees += row.Fees
		st.Payouts += row.Payouts
	}
	return st
}

// Close drains every market and compacts and closes every journal, but
// leaves the tenant directories live so the next Open recovers them.
// The registry accepts no new work afterwards.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	markets := make([]*Market, 0, len(r.markets))
	for _, m := range r.markets {
		markets = append(markets, m)
	}
	r.mu.Unlock()

	var firstErr error
	for _, m := range markets {
		if err := r.retire(m, false); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
