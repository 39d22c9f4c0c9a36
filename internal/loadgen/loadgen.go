// Package loadgen is the closed-loop buyer-traffic core of cmd/nimbus-load
// (standalone load runs against a running broker). N concurrent buyers mix
// the paper's three purchase options (buy at quality, buy under an error
// budget, buy under a price budget) across every (offering, loss) curve on
// the menu, optionally paced by a shared aggregate rate cap.
//
// The traffic mix is replayable: buyer i draws every curve, point and
// option choice from an rng stream seeded with Config.Seed+i, so two runs
// with the same seed against identically-listed brokers issue the
// identical request sequence. Budgets are derived from the live
// price–error curves (a random curve point's error or price, inflated by
// up to 50%), so every generated request is satisfiable.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nimbus/internal/rng"
	"nimbus/internal/server"
)

// PurchaseOptions are the three buy options the generator cycles through,
// matching the POST /api/v1/buy "option" field.
var PurchaseOptions = [...]string{"quality", "error-budget", "price-budget"}

// Config is one load run.
type Config struct {
	Concurrency int
	Duration    time.Duration // run length (ignored when Count > 0)
	Count       int           // total request count (0 = run for Duration)
	Seed        int64         // base seed; buyer i draws from rng.New(Seed+i)
	// Rate caps the aggregate request rate (req/s); 0 runs fully
	// closed-loop, as fast as responses return.
	Rate float64
	// Markets spreads traffic across tenant markets: each buyer
	// round-robins the listed dataset IDs (from a seeded starting offset)
	// and purchases through the tenant-scoped routes. Empty shops the
	// untenanted routes, which serve every market's offerings.
	Markets []string
}

// Validate reports the first configuration error, or nil.
func (cfg Config) Validate() error {
	if cfg.Concurrency <= 0 {
		return fmt.Errorf("concurrency %d must be positive", cfg.Concurrency)
	}
	if cfg.Count <= 0 && cfg.Duration <= 0 {
		return errors.New("need a positive request count or duration")
	}
	if cfg.Rate < 0 {
		return fmt.Errorf("rate %v must be non-negative", cfg.Rate)
	}
	seen := make(map[string]bool, len(cfg.Markets))
	for _, id := range cfg.Markets {
		if id == "" {
			return errors.New("markets list contains an empty dataset id")
		}
		if seen[id] {
			return fmt.Errorf("market %q listed twice", id)
		}
		seen[id] = true
	}
	return nil
}

// Report is the run summary. All latencies are in seconds.
type Report struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`  // transport failures + non-2xx
	NonOK    int     `json:"non_2xx"` // the non-2xx subset
	Elapsed  float64 `json:"elapsed_seconds"`
	QPS      float64 `json:"qps"`
	Min      float64 `json:"latency_min_seconds"`
	Mean     float64 `json:"latency_mean_seconds"`
	P50      float64 `json:"latency_p50_seconds"`
	P95      float64 `json:"latency_p95_seconds"`
	P99      float64 `json:"latency_p99_seconds"`
	Max      float64 `json:"latency_max_seconds"`
	// ByOption counts completed requests per purchase option.
	ByOption map[string]int `json:"by_option"`
	// Revenue sums the prices of successful purchases, for cross-checking
	// against the broker's nimbus_revenue_total series.
	Revenue float64 `json:"revenue"`
	// Markets is the number of tenant markets the run spread across
	// (0 = a run on the untenanted routes).
	Markets int `json:"markets,omitempty"`
	// ByMarket counts completed requests per dataset ID (multi-market
	// runs only).
	ByMarket map[string]int `json:"by_market,omitempty"`
}

// target is one (offering, loss) curve a buyer can shop on.
type target struct {
	offering string
	loss     string
	points   []curvePoint
}

type curvePoint struct {
	x, err, price float64
}

// targetGroup is one market's shoppable curves and the client scoped to
// its routes. Runs on the untenanted routes use one group with an empty
// market ID and the unscoped client.
type targetGroup struct {
	market  string // dataset ID; "" = the untenanted routes
	client  *server.Client
	targets []target
}

// workerResult is one buyer's tally, merged after the run.
type workerResult struct {
	latencies []float64
	byOption  map[string]int
	byMarket  map[string]int
	errs      int
	nonOK     int
	revenue   float64
}

// Run executes the load test against the broker behind client and returns
// the merged report. A caller-cancelled context is a clean early stop
// unless no request completed at all.
func Run(ctx context.Context, client *server.Client, cfg Config) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	groups, err := loadTargetGroups(ctx, client, cfg.Markets)
	if err != nil {
		return Report{}, err
	}

	// Count mode claims request slots from a shared counter; duration mode
	// runs every buyer until the deadline.
	runCtx := ctx
	if cfg.Count <= 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	var issued atomic.Int64
	claim := func() bool {
		if runCtx.Err() != nil {
			return false
		}
		if cfg.Count > 0 {
			return issued.Add(1) <= int64(cfg.Count)
		}
		return true
	}

	// A shared ticker paces all buyers: each tick releases one request, so
	// the aggregate rate — not the per-worker rate — is what's capped.
	var tick <-chan time.Time
	if cfg.Rate > 0 {
		ticker := time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer ticker.Stop()
		tick = ticker.C
	}

	results := make([]workerResult, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = buyer(runCtx, groups, rng.New(cfg.Seed+int64(i)), claim, tick)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := merge(results, elapsed)
	rep.Markets = len(cfg.Markets)
	if ctx.Err() != nil && rep.Requests == 0 {
		return rep, ctx.Err()
	}
	return rep, nil
}

// loadTargetGroups fetches the shoppable curves: the whole menu as one
// group for runs on the untenanted routes, or one group per tenant market
// fetched through the tenant-scoped routes.
func loadTargetGroups(ctx context.Context, client *server.Client, markets []string) ([]targetGroup, error) {
	if len(markets) == 0 {
		targets, err := loadTargets(ctx, client)
		if err != nil {
			return nil, err
		}
		return []targetGroup{{client: client, targets: targets}}, nil
	}
	groups := make([]targetGroup, 0, len(markets))
	for _, id := range markets {
		scoped := client.Tenant(id)
		targets, err := loadTargets(ctx, scoped)
		if err != nil {
			return nil, fmt.Errorf("market %s: %w", id, err)
		}
		groups = append(groups, targetGroup{market: id, client: scoped, targets: targets})
	}
	return groups, nil
}

// loadTargets fetches one menu and every per-loss price–error curve
// through client's routes.
func loadTargets(ctx context.Context, client *server.Client) ([]target, error) {
	menu, err := client.Menu(ctx)
	if err != nil {
		return nil, fmt.Errorf("fetching menu: %w", err)
	}
	if len(menu.Offerings) == 0 {
		return nil, errors.New("broker has an empty menu; nothing to buy")
	}
	var targets []target
	for _, o := range menu.Offerings {
		for _, loss := range o.Losses {
			curve, err := client.Curve(ctx, o.Name, loss)
			if err != nil {
				return nil, fmt.Errorf("fetching curve %s/%s: %w", o.Name, loss, err)
			}
			t := target{offering: o.Name, loss: loss}
			for _, p := range curve.Points {
				t.points = append(t.points, curvePoint{x: p.X, err: p.Error, price: p.Price})
			}
			if len(t.points) > 0 {
				targets = append(targets, t)
			}
		}
	}
	if len(targets) == 0 {
		return nil, errors.New("no offering has a non-empty price–error curve")
	}
	return targets, nil
}

// nextRequest draws one buy request from the buyer's rng stream. It is the
// whole replayable surface of a buyer: everything a run sends is a pure
// function of the target list and the stream's state.
func nextRequest(rnd *rng.Source, targets []target) server.BuyRequest {
	t := targets[rnd.Intn(len(targets))]
	pt := t.points[rnd.Intn(len(t.points))]
	opt := PurchaseOptions[rnd.Intn(len(PurchaseOptions))]
	req := server.BuyRequest{Offering: t.offering, Loss: t.loss, Option: opt}
	switch opt {
	case "quality":
		req.Value = pt.x
	case "error-budget":
		// Any listed point's error is attainable; inflating it keeps the
		// request satisfiable while varying which point is bought.
		req.Value = pt.err * (1 + 0.5*rnd.Float64())
	case "price-budget":
		req.Value = pt.price * (1 + 0.5*rnd.Float64())
	}
	return req
}

// buyer is one closed-loop worker: claim a slot, pick a market (round-
// robin from a seeded start), pick a curve and option, buy, record,
// repeat. With one group the market rotation degenerates to a single
// loop and draws nothing extra from the rng stream.
func buyer(ctx context.Context, groups []targetGroup, rnd *rng.Source, claim func() bool, tick <-chan time.Time) workerResult {
	res := workerResult{byOption: make(map[string]int)}
	gi := 0
	if len(groups) > 1 {
		gi = rnd.Intn(len(groups))
		res.byMarket = make(map[string]int)
	}
	for claim() {
		if tick != nil {
			select {
			case <-tick:
			case <-ctx.Done():
				return res
			}
		}
		grp := groups[gi]
		gi = (gi + 1) % len(groups)
		req := nextRequest(rnd, grp.targets)
		reqStart := time.Now()
		p, err := grp.client.Buy(ctx, req)
		res.latencies = append(res.latencies, time.Since(reqStart).Seconds())
		res.byOption[req.Option]++
		if res.byMarket != nil {
			res.byMarket[grp.market]++
		}
		if err != nil {
			if ctx.Err() != nil {
				// The deadline cut this request off mid-flight; drop it
				// rather than report a spurious failure.
				res.latencies = res.latencies[:len(res.latencies)-1]
				res.byOption[req.Option]--
				if res.byMarket != nil {
					res.byMarket[grp.market]--
				}
				break
			}
			res.errs++
			var apiErr *server.APIError
			if errors.As(err, &apiErr) {
				res.nonOK++
			}
			continue
		}
		res.revenue += p.Price
	}
	return res
}

// merge folds the per-worker tallies into a report with exact percentiles
// (all latencies are kept and sorted — a load test's sample counts are small
// enough that estimation would be a needless loss of precision).
func merge(results []workerResult, elapsed time.Duration) Report {
	rep := Report{Elapsed: elapsed.Seconds(), ByOption: make(map[string]int)}
	var all []float64
	for _, r := range results {
		all = append(all, r.latencies...)
		rep.Errors += r.errs
		rep.NonOK += r.nonOK
		rep.Revenue += r.revenue
		for k, v := range r.byOption {
			rep.ByOption[k] += v
		}
		for k, v := range r.byMarket {
			if rep.ByMarket == nil {
				rep.ByMarket = make(map[string]int)
			}
			rep.ByMarket[k] += v
		}
	}
	rep.Requests = len(all)
	if rep.Requests == 0 {
		return rep
	}
	sort.Float64s(all)
	var sum float64
	for _, v := range all {
		sum += v
	}
	rep.QPS = float64(rep.Requests) / rep.Elapsed
	rep.Min = all[0]
	rep.Max = all[len(all)-1]
	rep.Mean = sum / float64(len(all))
	rep.P50 = percentile(all, 0.50)
	rep.P95 = percentile(all, 0.95)
	rep.P99 = percentile(all, 0.99)
	return rep
}

// percentile reads the q-th quantile off a sorted sample (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}
