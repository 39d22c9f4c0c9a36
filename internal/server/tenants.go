package server

import (
	"errors"
	"net/http"

	"nimbus/internal/registry"
)

// The dataset API. Dataset IDs are path segments, matched by Go 1.22
// ServeMux wildcards:
//
//	POST   /api/v1/datasets                 list a dataset (train + price + open)
//	GET    /api/v1/datasets                 all live datasets with their books
//	GET    /api/v1/datasets/{id}            one dataset's spec, offerings and books
//	DELETE /api/v1/datasets/{id}            delist: drain, compact, archive
//	GET    /api/v1/datasets/{id}/menu       the tenant's own menu
//	GET    /api/v1/datasets/{id}/curve      price–error curve, tenant-scoped
//	POST   /api/v1/datasets/{id}/buy        purchase inside one tenant market
//	GET    /api/v1/datasets/{id}/stats      the tenant's books
//	GET    /api/v1/datasets/{id}/statement  the tenant's accounting report
//
// The tenant-scoped menu, curve, buy, stats and statement routes are the
// handlers of server.go, mounted by registerMarketRoutes over one market.

// WithTenantRate gives every tenant market its own purchase budget: a
// token bucket per dataset ID (not per client), so one tenant's flash
// crowd cannot starve the rest of the marketplace. Every buy route draws
// on the budget of the market that owns the offering.
func WithTenantRate(rate float64, burst int) Option {
	return func(s *Server) { s.tenantRL = NewRateLimiter(rate, burst) }
}

// registerDatasetRoutes mounts the dataset lifecycle API.
func (s *Server) registerDatasetRoutes() {
	s.handle("POST /api/v1/datasets", s.handleListDataset)
	s.handle("GET /api/v1/datasets", s.handleDatasets)
	s.handle("GET /api/v1/datasets/{id}", s.tenant(s.handleDataset))
	s.handle("DELETE /api/v1/datasets/{id}", s.handleDelistDataset)
}

// ListDatasetRequest is the POST /api/v1/datasets body: the listing spec
// plus, for CSV sources, the file contents inline.
type ListDatasetRequest struct {
	registry.Spec
	// Data is the raw CSV text for CSV-sourced specs.
	Data string `json:"data,omitempty"`
}

// DatasetResponse describes one live dataset market.
type DatasetResponse struct {
	Spec      registry.Spec `json:"spec"`
	Offerings []string      `json:"offerings"`
	Sales     int           `json:"sales"`
	Gross     float64       `json:"gross"`
}

// DatasetsResponse is the GET /api/v1/datasets payload: one row per live
// market, plus the marketplace totals.
type DatasetsResponse struct {
	Datasets []registry.MarketStats `json:"datasets"`
	Markets  int                    `json:"markets"`
	Sales    int                    `json:"sales"`
	Gross    float64                `json:"gross"`
}

func datasetResponse(m *registry.Market) DatasetResponse {
	st := m.Statement()
	return DatasetResponse{
		Spec:      m.Spec,
		Offerings: m.Broker.Menu(),
		Sales:     st.Sales,
		Gross:     st.Gross,
	}
}

func (s *Server) handleListDataset(w http.ResponseWriter, r *http.Request) {
	var req ListDatasetRequest
	if !s.decodeBody(w, r, maxListBody, "list", &req) {
		return
	}
	var csvData []byte
	if req.CSV {
		csvData = []byte(req.Data)
	} else if req.Data != "" {
		s.fail(w, http.StatusBadRequest, errors.New("data supplied for a generator source"))
		return
	}
	m, err := s.registry.List(req.Spec, csvData)
	if err != nil {
		switch {
		case errors.Is(err, registry.ErrMarketExists), errors.Is(err, registry.ErrDelisting):
			s.fail(w, http.StatusConflict, err)
		case errors.Is(err, registry.ErrTooManyMarkets):
			s.fail(w, http.StatusServiceUnavailable, err)
		default:
			s.fail(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, datasetResponse(m))
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	st := s.registry.Stats()
	resp := DatasetsResponse{
		Datasets: st.PerMarket,
		Markets:  st.Markets,
		Sales:    st.Sales,
		Gross:    st.Gross,
	}
	if resp.Datasets == nil {
		resp.Datasets = []registry.MarketStats{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDataset(w http.ResponseWriter, _ *http.Request, ms []*registry.Market) {
	writeJSON(w, http.StatusOK, datasetResponse(ms[0]))
}

func (s *Server) handleDelistDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.registry.Delist(id)
	if err != nil {
		switch {
		case errors.Is(err, registry.ErrUnknownMarket):
			s.fail(w, http.StatusNotFound, err)
		case errors.Is(err, registry.ErrDelisting):
			s.fail(w, http.StatusConflict, err)
		default:
			// Draining, compaction, journal close and archiving are the
			// server's work; the request itself was well formed.
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, st)
}
