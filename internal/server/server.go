// Package server exposes a Nimbus marketplace over HTTP — the interactive
// surface of the SIGMOD demo. It serves a registry of tenant markets, one
// per listed dataset (internal/registry): sellers list and delist
// datasets, buyers browse the menu, fetch price–error curves and purchase
// noisy model instances as JSON.
//
//	GET  /healthz                         liveness probe
//	GET  /metrics                         Prometheus text-format telemetry
//	GET  /api/v1/menu                     offerings with supported losses
//	GET  /api/v1/curve?offering=&loss=    the price–error curve
//	POST /api/v1/buy                      execute a purchase
//	GET  /api/v1/stats                    the books
//	GET  /api/v1/statement                the per-offering accounting report
//	GET  /api/v1/offerings                audit snapshots of every listing
//	GET  /api/v1/metrics                  telemetry snapshot as JSON
//
// These routes serve the union of every live market: offering names embed
// the dataset ID, so they are unique across markets. The /api/v1/datasets
// routes (tenants.go) list and delist markets and serve the same menu,
// curve, buy, stats and statement handlers scoped to one market.
//
// The buy request body selects one of the paper's three purchase options:
//
//	{"offering": "...", "loss": "...", "option": "quality",      "value": 10}
//	{"offering": "...", "loss": "...", "option": "error-budget", "value": 0.5}
//	{"offering": "...", "loss": "...", "option": "price-budget", "value": 25}
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"

	"nimbus/internal/market"
	"nimbus/internal/pricing"
	"nimbus/internal/registry"
	"nimbus/internal/telemetry"
)

// Server is an http.Handler serving a registry of tenant markets.
type Server struct {
	registry *registry.Registry
	tenantRL *RateLimiter // per-tenant purchase budget; nil unless WithTenantRate
	clientRL *RateLimiter // per-client request budget; nil unless WithClientRate
	mux      *http.ServeMux
	logf     func(format string, args ...any)
	reg      *telemetry.Registry
}

// Option customizes a Server.
type Option func(*Server)

// WithLogger routes request logging; the default is log.Printf.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithTelemetry exposes the registry at GET /metrics (Prometheus text
// format) and GET /api/v1/metrics (JSON snapshot). The same registry is
// typically shared with WithMiddleware and the market registry so one
// scrape covers the whole serving stack; the WithClientRate limiter
// reports into it too.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// NewMulti serves a registry of tenant markets: the untenanted API over
// the union of every live market, plus the /api/v1/datasets routes for
// listing, delisting and tenant-scoped browsing and buying.
func NewMulti(r *registry.Registry, opts ...Option) *Server {
	s := &Server{registry: r, mux: http.NewServeMux(), logf: log.Printf}
	for _, o := range opts {
		o(s)
	}
	if s.clientRL != nil {
		s.clientRL.setTelemetry(s.reg)
	}
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /metrics", s.handleMetricsProm)
	s.handle("GET /api/v1/metrics", s.handleMetricsJSON)
	s.handle("GET /api/v1/offerings", s.union(s.handleOfferings))
	s.registerMarketRoutes("/api/v1", s.union)
	s.registerMarketRoutes("/api/v1/datasets/{id}", s.tenant)
	s.registerDatasetRoutes()
	s.registerUI()
	return s
}

// handle registers h for pattern; every route goes through it. It tags
// the request with pattern, WithMiddleware's route label, before the
// WithClientRate limiter runs, so a throttled request is labelled too.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if rec, ok := w.(*statusRecorder); ok {
			rec.route = pattern
		}
		if s.clientRL != nil && !s.clientRL.allowClient(r) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "rate limit exceeded"})
			return
		}
		h(w, r)
	})
}

// marketsHandler serves a request over the markets its route addresses.
type marketsHandler func(w http.ResponseWriter, r *http.Request, ms []*registry.Market)

// union serves h over every live market.
func (s *Server) union(h marketsHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(w, r, s.registry.Markets())
	}
}

// tenant serves h over the market named by the {id} path segment,
// answering 404 when no live market has that ID.
func (s *Server) tenant(h marketsHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m, err := s.registry.Get(r.PathValue("id"))
		if err != nil {
			s.fail(w, http.StatusNotFound, err)
			return
		}
		h(w, r, []*registry.Market{m})
	}
}

// registerMarketRoutes mounts the browse-and-buy API under prefix, each
// route serving the markets scope resolves for it.
func (s *Server) registerMarketRoutes(prefix string, scope func(marketsHandler) http.HandlerFunc) {
	s.handle("GET "+prefix+"/menu", scope(s.handleMenu))
	s.handle("GET "+prefix+"/curve", scope(s.handleCurve))
	s.handle("POST "+prefix+"/buy", scope(s.handleBuy))
	s.handle("GET "+prefix+"/stats", scope(s.handleStats))
	s.handle("GET "+prefix+"/statement", scope(s.handleStatement))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// MenuEntry is one offering in the menu response.
type MenuEntry struct {
	Name            string   `json:"name"`
	Model           string   `json:"model"`
	Losses          []string `json:"losses"`
	Dataset         string   `json:"dataset"`
	TrainRows       int      `json:"train_rows"`
	TestRows        int      `json:"test_rows"`
	Features        int      `json:"features"`
	ExpectedRevenue float64  `json:"expected_revenue"`
}

// MenuResponse is the GET /api/v1/menu payload.
type MenuResponse struct {
	Offerings []MenuEntry `json:"offerings"`
}

// CurveResponse is the GET /api/v1/curve payload.
type CurveResponse struct {
	Offering string                    `json:"offering"`
	Loss     string                    `json:"loss"`
	Points   []pricing.PriceErrorPoint `json:"points"`
}

// BuyRequest is the POST /api/v1/buy body.
type BuyRequest struct {
	Offering string  `json:"offering"`
	Loss     string  `json:"loss"`
	Option   string  `json:"option"` // "quality", "error-budget" or "price-budget"
	Value    float64 `json:"value"`
}

// ErrorResponse is the error payload for all endpoints.
type ErrorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// offerings lists every offering the markets carry, sorted by name.
func offerings(ms []*registry.Market) []*market.Offering {
	var out []*market.Offering
	for _, m := range ms {
		for _, name := range m.Broker.Menu() {
			if o, err := m.Broker.Offering(name); err == nil {
				out = append(out, o)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// findOffering resolves an offering name to the market that lists it.
func findOffering(ms []*registry.Market, name string) (*registry.Market, *market.Offering, error) {
	for _, m := range ms {
		if o, err := m.Broker.Offering(name); err == nil {
			return m, o, nil
		}
	}
	return nil, nil, fmt.Errorf("market: %q: %w", name, market.ErrUnknownOffering)
}

// menuEntries assembles the menu rows of the markets' offerings.
func menuEntries(ms []*registry.Market) []MenuEntry {
	offs := offerings(ms)
	entries := make([]MenuEntry, 0, len(offs))
	for _, o := range offs {
		stats := o.Pair.Stats()
		entries = append(entries, MenuEntry{
			Name:            o.Name,
			Model:           o.Model.Name(),
			Losses:          o.LossNames(),
			Dataset:         o.Pair.Name,
			TrainRows:       stats.N1,
			TestRows:        stats.N2,
			Features:        stats.D,
			ExpectedRevenue: o.ExpectedRevenue,
		})
	}
	return entries
}

func (s *Server) handleMenu(w http.ResponseWriter, _ *http.Request, ms []*registry.Market) {
	writeJSON(w, http.StatusOK, MenuResponse{Offerings: menuEntries(ms)})
}

func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request, ms []*registry.Market) {
	offering := r.URL.Query().Get("offering")
	loss := r.URL.Query().Get("loss")
	if offering == "" || loss == "" {
		s.fail(w, http.StatusBadRequest, errors.New("offering and loss query parameters are required"))
		return
	}
	_, o, err := findOffering(ms, offering)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	c, err := o.Curve(loss)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, CurveResponse{Offering: offering, Loss: loss, Points: c.Points()})
}

// errTenantThrottled rejects a purchase over its market's WithTenantRate
// budget.
var errTenantThrottled = errors.New("tenant rate budget exceeded")

// buy is the one purchase path behind every buy route: it charges m's
// tenant budget, then runs the drain-aware Market.Buy.
func (s *Server) buy(m *registry.Market, req BuyRequest) (*market.Purchase, error) {
	if s.tenantRL != nil && !s.tenantRL.allow(m.ID) {
		if s.reg != nil {
			// m.ID names a live market (the caller resolved it), so the
			// label set is bounded by the registry's MaxMarkets cap.
			//lint:ignore telemetry-label-literal the market label names a live market resolved by the caller; the registry caps live markets at MaxMarkets
			s.reg.Counter("nimbus_market_throttled_total", "market", m.ID).Inc()
			s.reg.Help("nimbus_market_throttled_total", "Purchases rejected by the per-tenant rate budget.")
		}
		return nil, errTenantThrottled
	}
	p, err := m.Buy(req.Offering, req.Loss, req.Option, req.Value)
	if err != nil {
		return nil, err
	}
	s.logf("nimbus: sold %s (%s) at x=%.3f for %.2f [market %s]", p.Offering, p.Loss, p.X, p.Price, m.ID)
	return p, nil
}

// Request body caps. A buy request is a few hundred bytes of JSON. A
// listing carries its CSV inline, so its cap is the largest upload the
// daemon accepts.
const (
	maxBuyBody  = 64 << 10
	maxListBody = 32 << 20
)

// decodeBody strictly decodes r's JSON body, read through a limit-byte
// cap, into v: one JSON value with nothing but white space after it. It
// answers 413 for an oversized body and 400 for any other decoding
// failure, and reports whether v was decoded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	s.fail(w, bodyStatus(err), fmt.Errorf("decoding %s request: %w", what, err))
	return false
}

// bodyStatus is the status for a failure to read a capped request body:
// 413 when the body ran past its cap, 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleBuy(w http.ResponseWriter, r *http.Request, ms []*registry.Market) {
	var req BuyRequest
	if !s.decodeBody(w, r, maxBuyBody, "buy", &req) {
		return
	}
	m, _, err := findOffering(ms, req.Offering)
	if err != nil {
		s.failBuy(w, err)
		return
	}
	p, err := s.buy(m, req)
	if err != nil {
		s.failBuy(w, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// failBuy maps purchase errors onto status codes.
func (s *Server) failBuy(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, market.ErrUnknownOffering), errors.Is(err, registry.ErrUnknownMarket):
		s.fail(w, http.StatusNotFound, err)
	case errors.Is(err, registry.ErrDelisting):
		s.fail(w, http.StatusConflict, err)
	case errors.Is(err, pricing.ErrUnattainable), errors.Is(err, pricing.ErrOverBudget):
		s.fail(w, http.StatusUnprocessableEntity, err)
	case errors.Is(err, errTenantThrottled):
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, err)
	default:
		s.fail(w, http.StatusBadRequest, err)
	}
}

// StatsResponse is the GET /api/v1/stats payload: the broker's books.
type StatsResponse struct {
	Offerings    int     `json:"offerings"`
	Sales        int     `json:"sales"`
	TotalRevenue float64 `json:"total_revenue"`
	// BrokerFees is the commission kept by the broker; Payouts is what
	// each offering's seller is owed.
	BrokerFees float64            `json:"broker_fees"`
	Payouts    map[string]float64 `json:"payouts"`
}

// statsResponse sums the markets' running books and unions their payout
// maps (offering names are unique across markets).
func statsResponse(ms []*registry.Market) StatsResponse {
	resp := StatsResponse{Payouts: make(map[string]float64)}
	for _, m := range ms {
		st := m.Statement()
		resp.Offerings += len(m.Broker.Menu())
		resp.Sales += st.Sales
		resp.TotalRevenue += st.Gross
		resp.BrokerFees += st.BrokerFees
		for _, l := range st.Lines {
			resp.Payouts[l.Offering] = l.Payout
		}
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, ms []*registry.Market) {
	writeJSON(w, http.StatusOK, statsResponse(ms))
}

// statement concatenates the markets' statements (each O(offerings) from
// the running books) into one report.
func statement(ms []*registry.Market) *market.Statement {
	merged := &market.Statement{}
	for _, m := range ms {
		st := m.Statement()
		merged.Lines = append(merged.Lines, st.Lines...)
		merged.Sales += st.Sales
		merged.Gross += st.Gross
		merged.BrokerFees += st.BrokerFees
		merged.Payouts += st.Payouts
	}
	sort.Slice(merged.Lines, func(i, j int) bool { return merged.Lines[i].Offering < merged.Lines[j].Offering })
	return merged
}

// handleStatement serves the per-offering accounting report.
func (s *Server) handleStatement(w http.ResponseWriter, _ *http.Request, ms []*registry.Market) {
	writeJSON(w, http.StatusOK, statement(ms))
}

// handleOfferings serves the audit snapshots of every listing.
func (s *Server) handleOfferings(w http.ResponseWriter, _ *http.Request, ms []*registry.Market) {
	offs := offerings(ms)
	snaps := make([]market.OfferingSnapshot, 0, len(offs))
	for _, o := range offs {
		snaps = append(snaps, o.Snapshot())
	}
	writeJSON(w, http.StatusOK, snaps)
}

// handleMetricsProm serves the shared registry in Prometheus text format.
// With no registry configured the body is empty but still scrapeable.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.logf("nimbus: writing metrics: %v", err)
	}
}

// handleMetricsJSON serves the registry snapshot as JSON for dashboards
// and the load generator.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but note it server-side.
		log.Printf("nimbus: encoding response: %v", err)
	}
}
