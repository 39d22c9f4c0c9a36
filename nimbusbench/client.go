package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// client drives the daemon's tenant routes (/api/v1/datasets[/{id}/…])
// and checks every answer against the reference curves it fetched first.
type client struct {
	base string
	hc   *http.Client
	ref  []*tenant // sorted by ID; the seeded Table 3 suite
	led  *ledger
}

// point is one served price–error curve point.
type point struct {
	X     float64 `json:"x"`
	Error float64 `json:"error"`
	Price float64 `json:"price"`
}

// tenant is the client's reference copy of one dataset market.
type tenant struct {
	ID       string
	Offering string
	Losses   []string
	D        int
	Curves   map[string][]point
}

// purchase mirrors the buy response.
type purchase struct {
	Offering       string    `json:"offering"`
	Loss           string    `json:"loss"`
	X              float64   `json:"x"`
	NCP            float64   `json:"ncp"`
	Price          float64   `json:"price"`
	BrokerFee      float64   `json:"broker_fee"`
	SellerProceeds float64   `json:"seller_proceeds"`
	ExpectedError  float64   `json:"expected_error"`
	Weights        []float64 `json:"weights"`
}

// errCheck marks a wrong answer, as opposed to a failed operation: it
// fails the run instead of being counted as a slow or failed request.
var errCheck = errors.New("check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCheck}, args...)...)
}

func newClient(addr string, conns int) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
		led: newLedger(),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx answer; anything
// else is an operation failure.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	//lint:ignore no-dropped-error the body is only read; a close failure loses nothing
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) getJSON(path string, v any) error {
	data, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return checkf("GET %s: decoding: %v", path, err)
	}
	return nil
}

type menuResp struct {
	Offerings []struct {
		Name     string   `json:"name"`
		Losses   []string `json:"losses"`
		Features int      `json:"features"`
	} `json:"offerings"`
}

type datasetRow struct {
	ID    string  `json:"id"`
	Sales int     `json:"sales"`
	Gross float64 `json:"gross"`
}

type datasetsResp struct {
	Datasets []datasetRow `json:"datasets"`
	Sales    int          `json:"sales"`
}

// fetchTenant reads one market's menu and every curve it serves, checking
// each curve is arbitrage-free.
func (c *client) fetchTenant(id string) (*tenant, error) {
	var m menuResp
	if err := c.getJSON("/api/v1/datasets/"+id+"/menu", &m); err != nil {
		return nil, err
	}
	if len(m.Offerings) != 1 {
		return nil, checkf("dataset %s serves %d offerings, want 1", id, len(m.Offerings))
	}
	o := m.Offerings[0]
	t := &tenant{ID: id, Offering: o.Name, Losses: o.Losses, D: o.Features, Curves: map[string][]point{}}
	for _, loss := range o.Losses {
		pts, err := c.curve(t, loss)
		if err != nil {
			return nil, err
		}
		t.Curves[loss] = pts
	}
	return t, nil
}

func (c *client) curve(t *tenant, loss string) ([]point, error) {
	var cr struct {
		Points []point `json:"points"`
	}
	q := url.Values{"offering": {t.Offering}, "loss": {loss}}
	if err := c.getJSON("/api/v1/datasets/"+t.ID+"/curve?"+q.Encode(), &cr); err != nil {
		return nil, err
	}
	if err := checkCurve(cr.Points); err != nil {
		return nil, fmt.Errorf("%s %s: %w", t.ID, loss, err)
	}
	return cr.Points, nil
}

// fetchReference loads the seeded suite as the run's reference.
func (c *client) fetchReference() error {
	var ds datasetsResp
	if err := c.getJSON("/api/v1/datasets", &ds); err != nil {
		return err
	}
	c.ref = nil
	for _, row := range ds.Datasets {
		t, err := c.fetchTenant(row.ID)
		if err != nil {
			return err
		}
		c.ref = append(c.ref, t)
	}
	sort.Slice(c.ref, func(i, j int) bool { return c.ref[i].ID < c.ref[j].ID })
	if len(c.ref) == 0 {
		return checkf("daemon serves no datasets")
	}
	return nil
}

// run executes one abstract request against the reference tenants.
func (c *client) run(o op) error {
	t := c.ref[o.Tenant%len(c.ref)]
	switch o.Kind {
	case opBuy:
		return c.buy(t, o)
	case opCurve:
		loss := t.Losses[pick(o.Loss, len(t.Losses))]
		pts, err := c.curve(t, loss)
		if err != nil {
			return err
		}
		if len(pts) != len(t.Curves[loss]) {
			return checkf("%s %s: curve changed length", t.ID, loss)
		}
		for i := range pts {
			if pts[i] != t.Curves[loss][i] {
				return checkf("%s %s: curve point %d changed", t.ID, loss, i)
			}
		}
		return nil
	case opMenu:
		var m menuResp
		return c.getJSON("/api/v1/datasets/"+t.ID+"/menu", &m)
	case opStats:
		var s struct {
			Sales int `json:"sales"`
		}
		return c.getJSON("/api/v1/datasets/"+t.ID+"/stats", &s)
	default:
		var ds datasetsResp
		return c.getJSON("/api/v1/datasets", &ds)
	}
}

// buy resolves the op's option value from the reference curve, purchases
// and checks the answer.
func (c *client) buy(t *tenant, o op) error {
	loss := t.Losses[pick(o.Loss, len(t.Losses))]
	pts := t.Curves[loss]
	value := optionValue(pts, o.Option, pick(o.Knot, len(pts)))
	body, err := json.Marshal(buyRequest{t.Offering, loss, options[o.Option], value})
	if err != nil {
		return err
	}
	data, err := c.do(http.MethodPost, "/api/v1/datasets/"+t.ID+"/buy", body)
	if err != nil {
		return err
	}
	var p purchase
	if err := json.Unmarshal(data, &p); err != nil {
		return checkf("buy %s: decoding: %v", t.ID, err)
	}
	if err := checkBuy(pts, o.Option, value, t.D, &p); err != nil {
		return fmt.Errorf("buy %s %s %s=%v: %w", t.ID, loss, options[o.Option], value, err)
	}
	c.led.add(t.ID, p.Price)
	return nil
}

type buyRequest struct {
	Offering string  `json:"offering"`
	Loss     string  `json:"loss"`
	Option   string  `json:"option"`
	Value    float64 `json:"value"`
}

// ledger is the client's record of acknowledged sales per dataset.
type ledger struct {
	mu    sync.Mutex
	books map[string]*books
}

type books struct {
	Sales int
	Gross float64
}

func newLedger() *ledger { return &ledger{books: map[string]*books{}} }

func (l *ledger) add(id string, price float64) {
	l.mu.Lock()
	b := l.books[id]
	if b == nil {
		b = &books{}
		l.books[id] = b
	}
	b.Sales++
	b.Gross += price
	l.mu.Unlock()
}

func (l *ledger) get(id string) books {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b := l.books[id]; b != nil {
		return *b
	}
	return books{}
}

// listSpecBody renders the POST /api/v1/datasets body.
func listSpecBody(s listSpec) ([]byte, error) {
	req := map[string]any{"id": s.ID, "owner": "nimbusbench", "seed": s.Seed}
	if s.CSV != nil {
		req["csv"] = true
		req["task"] = "regression"
		req["target"] = "y"
		req["data"] = string(s.CSV)
	} else {
		req["generator"] = s.Generator
		req["rows"] = s.Rows
	}
	return json.Marshal(req)
}

// statement is the delist answer.
type statement struct {
	Sales int     `json:"sales"`
	Gross float64 `json:"gross"`
}

// listCycle lists a dataset, reads its menu and curves, buys on it and
// delists it, checking the final statement against the acknowledged buys.
// Each request is one record; a failure ends the cycle.
func (c *client) listCycle(s listSpec, phaseStart time.Time) []rec {
	var out []rec
	timed := func(kind opKind, fn func() error) bool {
		t0 := time.Now()
		err := fn()
		out = append(out, rec{Kind: kind, At: t0.Sub(phaseStart), Lat: time.Since(t0), Err: err, Shape: s.Shape})
		return err == nil
	}
	body, err := listSpecBody(s)
	if err != nil {
		return []rec{{Kind: opList, Err: err, Shape: s.Shape}}
	}
	if !timed(opList, func() error {
		_, err := c.do(http.MethodPost, "/api/v1/datasets", body)
		return err
	}) {
		return out
	}
	var t *tenant
	if !timed(opFetch, func() (err error) {
		t, err = c.fetchTenant(s.ID)
		return err
	}) {
		return out
	}
	for _, b := range s.Buys {
		if !timed(opBuy, func() error { return c.buy(t, b) }) {
			return out
		}
	}
	timed(opDelist, func() error {
		data, err := c.do(http.MethodDelete, "/api/v1/datasets/"+s.ID, nil)
		if err != nil {
			return err
		}
		var st statement
		if err := json.Unmarshal(data, &st); err != nil {
			return checkf("delist %s: decoding: %v", s.ID, err)
		}
		if err := sameBooks(c.led.get(s.ID), st.Sales, st.Gross); err != nil {
			return fmt.Errorf("delist %s statement: %w", s.ID, err)
		}
		return nil
	})
	return out
}

// verifyBooks checks that every seeded dataset's sales and gross, as the
// daemon reports them, equal the client's acknowledged buys.
func (c *client) verifyBooks() error {
	var ds datasetsResp
	if err := c.getJSON("/api/v1/datasets", &ds); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, row := range ds.Datasets {
		seen[row.ID] = true
		if err := sameBooks(c.led.get(row.ID), row.Sales, row.Gross); err != nil {
			return fmt.Errorf("dataset %s: %w", row.ID, err)
		}
	}
	for _, t := range c.ref {
		if !seen[t.ID] {
			return checkf("dataset %s missing", t.ID)
		}
	}
	return nil
}
