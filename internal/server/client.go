package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"nimbus/internal/market"
	"nimbus/internal/telemetry"
)

// Client is the Go client for the Nimbus broker API. It calls the
// untenanted routes; Tenant returns a copy scoped to one dataset market.
type Client struct {
	// BaseURL is the broker root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	scope string // route prefix of Menu, Curve, Buy, Stats and Statement; "" = /api/v1
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: http.DefaultClient}
}

// Tenant returns a copy of c whose Menu, Curve, Buy, Stats and Statement
// call one dataset market's routes, /api/v1/datasets/{id}/…. The ID is
// path-escaped, so callers can pass it verbatim.
func (c *Client) Tenant(id string) *Client {
	t := *c
	t.scope = datasetPath(id)
	return &t
}

// route is the path of one of the scoped calls.
func (c *Client) route(sub string) string {
	if c.scope == "" {
		return "/api/v1/" + sub
	}
	return c.scope + "/" + sub
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx response from the broker.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("nimbus API: HTTP %d: %s", e.StatusCode, e.Message)
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rdr io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("encoding request: %w", err)
		}
		rdr = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
	if err != nil {
		return fmt.Errorf("building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("calling broker: %w", err)
	}
	//lint:ignore no-dropped-error a failed close of a fully-read response body has nothing for the client to act on
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e ErrorResponse
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &APIError{StatusCode: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// Menu fetches the broker's offerings.
func (c *Client) Menu(ctx context.Context) (*MenuResponse, error) {
	var out MenuResponse
	if err := c.do(ctx, http.MethodGet, c.route("menu"), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Curve fetches a price–error curve.
func (c *Client) Curve(ctx context.Context, offering, loss string) (*CurveResponse, error) {
	var out CurveResponse
	q := url.Values{"offering": {offering}, "loss": {loss}}
	if err := c.do(ctx, http.MethodGet, c.route("curve")+"?"+q.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Buy executes a purchase.
func (c *Client) Buy(ctx context.Context, req BuyRequest) (*market.Purchase, error) {
	var out market.Purchase
	if err := c.do(ctx, http.MethodPost, c.route("buy"), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the broker's books.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, c.route("stats"), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Statement fetches the per-offering accounting report.
func (c *Client) Statement(ctx context.Context) (*market.Statement, error) {
	var out market.Statement
	if err := c.do(ctx, http.MethodGet, c.route("statement"), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Offerings fetches the audit snapshots of every listing.
func (c *Client) Offerings(ctx context.Context) ([]market.OfferingSnapshot, error) {
	var out []market.OfferingSnapshot
	if err := c.do(ctx, http.MethodGet, "/api/v1/offerings", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics fetches the broker's telemetry snapshot.
func (c *Client) Metrics(ctx context.Context) (*telemetry.Snapshot, error) {
	var out telemetry.Snapshot
	if err := c.do(ctx, http.MethodGet, "/api/v1/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy reports whether the broker responds to the liveness probe.
func (c *Client) Healthy(ctx context.Context) bool {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil) == nil
}
