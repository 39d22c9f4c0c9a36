package server

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"strconv"

	"nimbus/internal/market"
	"nimbus/internal/pricing"
	"nimbus/internal/registry"
)

// The demo surface: Nimbus was shown at SIGMOD as an interactive system
// where the audience browses price–error curves and buys model instances.
// This file serves that demonstration as a server-rendered HTML dashboard
// (no JavaScript, stdlib html/template): the menu at /ui, one page per
// offering with its curves, and a purchase form.

const uiBase = `<!DOCTYPE html>
<html><head><title>Nimbus — model-based pricing</title><style>
body { font-family: system-ui, sans-serif; margin: 2rem; max-width: 64rem; }
table { border-collapse: collapse; margin: 1rem 0; }
td, th { border: 1px solid #999; padding: 0.3rem 0.7rem; text-align: right; }
th { background: #eee; }
td:first-child, th:first-child { text-align: left; }
h1 a { text-decoration: none; color: inherit; }
form { margin: 1rem 0; padding: 1rem; border: 1px solid #ccc; }
.err { color: #a00; }
.ok { color: #070; }
code { background: #f4f4f4; padding: 0 0.2rem; }
</style></head><body>
<h1><a href="/ui">Nimbus</a> — model-based pricing demo</h1>
{{block "body" .}}{{end}}
</body></html>`

var (
	uiMenuTmpl = template.Must(template.Must(template.New("menu").Parse(uiBase)).Parse(`{{define "body"}}
<p>The broker trains the optimal model once and sells noisy versions at
arbitrage-free prices. Pick an offering:</p>
<table>
<tr><th>offering</th><th>model</th><th>train rows</th><th>test rows</th><th>d</th><th>losses</th><th>expected revenue</th></tr>
{{range .Offerings}}
<tr><td><a href="/ui/offering?name={{.Name}}">{{.Name}}</a></td><td>{{.Model}}</td>
<td>{{.TrainRows}}</td><td>{{.TestRows}}</td><td>{{.Features}}</td>
<td>{{range .Losses}}<code>{{.}}</code> {{end}}</td><td>{{printf "%.2f" .ExpectedRevenue}}</td></tr>
{{end}}
</table>
<p>Broker books: {{.Stats.Sales}} sales, revenue {{printf "%.2f" .Stats.TotalRevenue}}.</p>
{{end}}`))

	uiOfferingTmpl = template.Must(template.Must(template.New("offering").Parse(uiBase)).Parse(`{{define "body"}}
<h2>{{.Name}}</h2>
{{if .Message}}<p class="{{.MessageClass}}">{{.Message}}</p>{{end}}
{{range .Curves}}
<h3>price–error curve under the <code>{{.Loss}}</code> loss</h3>
<table>
<tr><th>quality 1/NCP</th><th>expected error</th><th>price</th></tr>
{{range .Points}}<tr><td>{{printf "%.2f" .X}}</td><td>{{printf "%.6f" .Error}}</td><td>{{printf "%.2f" .Price}}</td></tr>{{end}}
</table>
{{end}}
<form method="post" action="/ui/buy">
<input type="hidden" name="offering" value="{{.Name}}">
<b>Buy a version</b><br><br>
loss:
<select name="loss">{{range .LossNames}}<option>{{.}}</option>{{end}}</select>
option:
<select name="option">
<option value="quality">quality (1/NCP)</option>
<option value="error-budget">error budget</option>
<option value="price-budget">price budget</option>
</select>
value: <input name="value" size="8" value="10">
<button type="submit">buy</button>
</form>
{{if .Purchase}}
<h3>purchased</h3>
<table>
<tr><th>quality</th><th>NCP δ</th><th>price</th><th>expected error</th><th>weights</th></tr>
<tr><td>{{printf "%.4f" .Purchase.X}}</td><td>{{printf "%.6f" .Purchase.NCP}}</td>
<td>{{printf "%.2f" .Purchase.Price}}</td><td>{{printf "%.6f" .Purchase.ExpectedError}}</td>
<td>{{len .Purchase.Weights}} coefficients</td></tr>
</table>
{{end}}
{{end}}`))
)

type uiCurve struct {
	Loss   string
	Points []pricing.PriceErrorPoint
}

type uiOfferingPage struct {
	Name         string
	LossNames    []string
	Curves       []uiCurve
	Message      string
	MessageClass string
	Purchase     *market.Purchase
}

// registerUI adds the dashboard routes, which serve every live market.
func (s *Server) registerUI() {
	s.handle("GET /ui", s.union(s.handleUIMenu))
	s.handle("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/ui", http.StatusFound)
	})
	s.handle("GET /ui/offering", s.union(s.handleUIOffering))
	s.handle("POST /ui/buy", s.union(s.handleUIBuy))
}

func (s *Server) handleUIMenu(w http.ResponseWriter, _ *http.Request, ms []*registry.Market) {
	page := struct {
		Offerings []MenuEntry
		Stats     StatsResponse
	}{
		Offerings: menuEntries(ms),
		Stats:     statsResponse(ms),
	}
	s.renderUI(w, http.StatusOK, uiMenuTmpl, page)
}

// uiOfferingData assembles the offering page (shared between GET and the
// post-purchase render).
func uiOfferingData(o *market.Offering) *uiOfferingPage {
	page := &uiOfferingPage{Name: o.Name, LossNames: o.LossNames()}
	for _, lossName := range o.LossNames() {
		c, err := o.Curve(lossName)
		if err != nil {
			continue
		}
		pts := c.Points()
		// Keep the table short: at most 12 evenly spaced rows.
		if len(pts) > 12 {
			step := float64(len(pts)-1) / 11
			trimmed := make([]pricing.PriceErrorPoint, 0, 12)
			for i := 0; i < 12; i++ {
				trimmed = append(trimmed, pts[int(float64(i)*step+0.5)])
			}
			pts = trimmed
		}
		page.Curves = append(page.Curves, uiCurve{Loss: lossName, Points: pts})
	}
	return page
}

func (s *Server) handleUIOffering(w http.ResponseWriter, r *http.Request, ms []*registry.Market) {
	_, o, err := findOffering(ms, r.URL.Query().Get("name"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.renderUI(w, http.StatusOK, uiOfferingTmpl, uiOfferingData(o))
}

func (s *Server) handleUIBuy(w http.ResponseWriter, r *http.Request, ms []*registry.Market) {
	// The form carries what a JSON buy request does, so it gets the same
	// cap rather than net/http's 10 MB form default.
	r.Body = http.MaxBytesReader(w, r.Body, maxBuyBody)
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), bodyStatus(err))
		return
	}
	req := BuyRequest{
		Offering: r.PostFormValue("offering"),
		Loss:     r.PostFormValue("loss"),
		Option:   r.PostFormValue("option"),
	}
	m, o, err := findOffering(ms, req.Offering)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	page := uiOfferingData(o)
	req.Value, err = strconv.ParseFloat(r.PostFormValue("value"), 64)
	if err != nil {
		page.Message = fmt.Sprintf("bad value: %v", err)
		page.MessageClass = "err"
		s.renderUI(w, http.StatusOK, uiOfferingTmpl, page)
		return
	}
	code := http.StatusOK
	p, err := s.buy(m, req)
	if err != nil {
		if errors.Is(err, errTenantThrottled) {
			w.Header().Set("Retry-After", "1")
			code = http.StatusTooManyRequests
		}
		page.Message = err.Error()
		page.MessageClass = "err"
	} else {
		page.Message = fmt.Sprintf("sold at %.2f — the noisy instance is below", p.Price)
		page.MessageClass = "ok"
		page.Purchase = p
	}
	s.renderUI(w, code, uiOfferingTmpl, page)
}

func (s *Server) renderUI(w http.ResponseWriter, code int, tmpl *template.Template, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(code)
	if err := tmpl.Execute(w, data); err != nil {
		s.logf("nimbus: rendering UI: %v", err)
	}
}
