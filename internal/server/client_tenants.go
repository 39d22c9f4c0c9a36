package server

import (
	"context"
	"net/http"
	"net/url"

	"nimbus/internal/market"
)

// Client methods for the dataset API.
// Dataset IDs are path-escaped, so callers can pass them verbatim.

// datasetPath is one dataset market's route, the prefix of its tenant
// routes.
func datasetPath(id string) string { return "/api/v1/datasets/" + url.PathEscape(id) }

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
	if err := c.do(ctx, http.MethodGet, datasetPath(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DelistDataset drains and archives a dataset market, returning its final
// accounting statement.
func (c *Client) DelistDataset(ctx context.Context, id string) (*market.Statement, error) {
	var out market.Statement
	if err := c.do(ctx, http.MethodDelete, datasetPath(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
