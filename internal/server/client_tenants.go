package server

import (
	"context"
	"net/http"
	"net/url"

	"nimbus/internal/market"
)

// Client methods for the dataset API.
// Dataset IDs are path-escaped, so callers can pass them verbatim.

func datasetPath(id string, sub string) string {
	p := "/api/v1/datasets/" + url.PathEscape(id)
	if sub != "" {
		p += "/" + sub
	}
	return p
}

// Datasets lists every live dataset market with its books.
func (c *Client) Datasets(ctx context.Context) (*DatasetsResponse, error) {
	var out DatasetsResponse
	if err := c.do(ctx, http.MethodGet, "/api/v1/datasets", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListDataset trains, prices and opens a market for a new dataset.
func (c *Client) ListDataset(ctx context.Context, req ListDatasetRequest) (*DatasetResponse, error) {
	var out DatasetResponse
	if err := c.do(ctx, http.MethodPost, "/api/v1/datasets", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Dataset fetches one live dataset market.
func (c *Client) Dataset(ctx context.Context, id string) (*DatasetResponse, error) {
	var out DatasetResponse
	if err := c.do(ctx, http.MethodGet, datasetPath(id, ""), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DelistDataset drains and archives a dataset market, returning its final
// accounting statement.
func (c *Client) DelistDataset(ctx context.Context, id string) (*market.Statement, error) {
	var out market.Statement
	if err := c.do(ctx, http.MethodDelete, datasetPath(id, ""), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TenantMenu fetches one tenant's offerings.
func (c *Client) TenantMenu(ctx context.Context, id string) (*MenuResponse, error) {
	var out MenuResponse
	if err := c.do(ctx, http.MethodGet, datasetPath(id, "menu"), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TenantCurve fetches a price–error curve inside one tenant market.
func (c *Client) TenantCurve(ctx context.Context, id, offering, loss string) (*CurveResponse, error) {
	var out CurveResponse
	q := url.Values{"offering": {offering}, "loss": {loss}}
	if err := c.do(ctx, http.MethodGet, datasetPath(id, "curve")+"?"+q.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TenantBuy purchases inside one tenant market.
func (c *Client) TenantBuy(ctx context.Context, id string, req BuyRequest) (*market.Purchase, error) {
	var out market.Purchase
	if err := c.do(ctx, http.MethodPost, datasetPath(id, "buy"), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TenantStats fetches one tenant's books.
func (c *Client) TenantStats(ctx context.Context, id string) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, datasetPath(id, "stats"), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TenantStatement fetches one tenant's accounting report.
func (c *Client) TenantStatement(ctx context.Context, id string) (*market.Statement, error) {
	var out market.Statement
	if err := c.do(ctx, http.MethodGet, datasetPath(id, "statement"), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
