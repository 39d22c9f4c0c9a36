package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"nimbus/internal/dataset"
	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/opt"
	"nimbus/internal/pricing"
	"nimbus/internal/registry"
	"nimbus/internal/rng"
	"nimbus/internal/server"
	"nimbus/internal/telemetry"
)

// layerDefs are the per-layer metrics of the traced run, in
// BENCHMARK.json order. README.md gives the end-to-end metric and workload
// each one should move.
var layerDefs = []struct{ name, unit string }{
	{"server.buy_us", "us"},
	{"server.self_buy_us", "us"},
	{"server.read_us", "us"},
	{"server.buy_resp_bytes", "B"},
	{"server.outside_handler_ms", "ms"},
	{"registry.buy_us", "us"},
	{"registry.list_s", "s"},
	{"registry.delist_ms", "ms"},
	{"registry.open_s", "s"},
	{"market.buy_us", "us"},
	{"market.buy_us_c2", "us"},
	{"market.buy_allocs", "count"},
	{"market.buy_bytes", "B"},
	{"market.marshal_us", "us"},
	{"market.retained_bytes_per_sale", "B"},
	{"market.statement_us", "us"},
	{"pricing.quote_ns", "ns"},
	{"pricing.transform_s", "s"},
	{"noise.perturb_us.d9", "us"},
	{"noise.perturb_us.d90", "us"},
	{"rng.split_ns", "ns"},
	{"rng.split_bytes", "B"},
	{"journal.append_us", "us"},
	{"journal.bytes_per_sale", "B"},
	{"journal.replay_ms_per_10k", "ms"},
	{"journal.fsyncs_per_1k_sales", "count"},
	{"journal.compact_ms", "ms"},
	{"journal.fsync_us", "us"},
	{"ml.fit_ms", "ms"},
	{"opt.dp_ms", "ms"},
	{"dataset.build_ms", "ms"},
	{"telemetry.observe_ns", "ns"},
	{"runtime.gc_per_1k_buys", "count"},
	{"trace.unattributed_buy_us", "us"},
}

func layerMetrics() []string {
	out := make([]string, len(layerDefs))
	for i, d := range layerDefs {
		out[i] = d.name
	}
	return out
}

func layerUnit(name string) string {
	for _, d := range layerDefs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// Sample counts of the in-process replay.
const (
	suiteBuys    = 3000
	suiteReads   = 3000
	suiteOpens   = 3
	suiteReplayN = 10000
	suiteFsyncs  = 50
)

// Seeded suite parameters, as nimbusd seeds an empty -data-dir.
const (
	suiteScale      = 1e-3
	suiteGrid       = 50
	suiteSamples    = 200
	suiteCommission = 0.1
)

// runTraced is the --trace 1 run: a daemon pass of the workload whose
// traced and untraced quarters show the tracing overhead, then the
// in-process replay that times each layer.
func runTraced(ctx context.Context, cfg config, res *Result) error {
	tr := newTracer()
	if err := runE2E(ctx, cfg, res, tr); err != nil {
		return err
	}
	dir := filepath.Join(cfg.work, "runs", fmt.Sprintf("trace-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer removeAll(dir)
	s := &suite{tr: tr, res: res, seed: cfg.seed, dir: dir, means: map[string]float64{}}
	if err := s.run(ctx); err != nil {
		return err
	}
	base := filepath.Join(cfg.work, "trace", fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	var table bytes.Buffer
	if err := tr.write(base+".spans.jsonl", &table); err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.txt", table.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %s.spans.jsonl\n%s", base, table.String())
	return nil
}

// daemonLayers derives the layer metrics only the live daemon can give,
// from /metrics scraped around the traced pass's measured phase.
func (t *tracer) daemonLayers(res *Result, recs []rec, before, after scrape) {
	// Both medians cover the whole phase, as the daemon's histogram does.
	lat, buys := countOK(recs, is(opBuy))
	n := float64(buys)
	srv, obs := histQuantile(before, after, "nimbus_http_request_seconds", buyRoute, 0.5)
	res.Metrics["server.outside_handler_ms"] = Metric{Value: (median(lat) - srv) * 1e3, Unit: "ms", N: obs}
	fsyncs := after["nimbus_journal_fsyncs_total"] - before["nimbus_journal_fsyncs_total"]
	res.Metrics["journal.fsyncs_per_1k_sales"] = Metric{Value: 1e3 * fsyncs / n, Unit: "count", N: buys}
	gcs := after["go_gc_cycles_total"] - before["go_gc_cycles_total"]
	res.Metrics["runtime.gc_per_1k_buys"] = Metric{Value: 1e3 * gcs / n, Unit: "count", N: buys}
}

// suite is the in-process replay: the workloads' generated inputs fed
// straight into each package's public functions, one span per call.
type suite struct {
	tr   *tracer
	res  *Result
	seed int64
	dir  string

	ref       []*tenant          // reference curves of the durable registry
	sales     []market.Purchase  // from the no-journal buys, for marshal/journal inputs
	memMarket []*registry.Market // no-journal tenants, sorted like ref
	means     map[string]float64 // mean per-call seconds by metric, for additive decompositions
}

func (s *suite) set(name string, v float64, n int) {
	s.res.Metrics[name] = Metric{Value: v, Unit: layerUnit(name), N: n}
}

// setMedian records the median of per-call seconds in the metric's unit,
// and keeps their mean.
func (s *suite) setMedian(name string, secs []float64) {
	s.set(name, median(secs)*unitScale(name), len(secs))
	sum := 0.0
	for _, x := range secs {
		sum += x
	}
	s.means[name] = sum / float64(len(secs))
}

// unitScale converts seconds into the metric's unit.
func unitScale(name string) float64 {
	return map[string]float64{"s": 1, "ms": 1e3, "us": 1e6, "ns": 1e9}[layerUnit(name)]
}

func (s *suite) check(err error) {
	if err != nil {
		s.res.fail(err)
	}
}

func (s *suite) run(ctx context.Context) error {
	steps := []func() error{s.serverAndRegistry, s.marketLayer, s.small, s.journalLayer, s.listPipeline, s.reopen}
	for _, step := range steps {
		if err := stopped(ctx); err != nil {
			return err
		}
		if err := step(); err != nil {
			return err
		}
	}
	// Differences of parts are taken on means, which add up; medians of
	// different call mixes do not.
	const us = 1e6
	m := s.means
	s.set("server.self_buy_us", (m["server.buy_us"]-m["registry.buy_us"])*us, suiteBuys)
	s.set("trace.unattributed_buy_us",
		(m["registry.buy_us"]-m["market.buy_us"]-m["market.marshal_us"]-m["journal.append_us"])*us, suiteBuys)
	return nil
}

// seedSuite lists the Table 3 suite as nimbusd does on an empty data dir.
func (s *suite) seedSuite(r *registry.Registry, parent int) error {
	for i, name := range registry.GeneratorNames() {
		spec := registry.Spec{
			ID: name, Owner: "nimbus", Generator: name,
			Rows: dataset.Table3Rows(name, suiteScale), Grid: suiteGrid, Samples: suiteSamples,
			Seed: daemonSeed(s.seed) + int64(i),
		}
		id := s.tr.begin("setup.seed_list", parent)
		_, err := r.List(spec, nil)
		s.tr.finish(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// referenceOf builds the client's reference view of a registry.
func referenceOf(r *registry.Registry) ([]*tenant, []*registry.Market, error) {
	var ref []*tenant
	var ms []*registry.Market
	for _, id := range r.IDs() {
		m, err := r.Get(id)
		if err != nil {
			return nil, nil, err
		}
		t, err := tenantOf(m)
		if err != nil {
			return nil, nil, err
		}
		ref = append(ref, t)
		ms = append(ms, m)
	}
	return ref, ms, nil
}

// tenantOf reads a market's offering and curves, as the client does over
// HTTP, checking each curve is arbitrage-free.
func tenantOf(m *registry.Market) (*tenant, error) {
	o, err := m.Broker.Offering(m.Broker.Menu()[0])
	if err != nil {
		return nil, err
	}
	t := &tenant{ID: m.ID, Offering: o.Name, Losses: o.LossNames(), D: o.Pair.Stats().D, Curves: map[string][]point{}}
	for _, loss := range t.Losses {
		c, err := o.Curve(loss)
		if err != nil {
			return nil, err
		}
		for _, p := range c.Points() {
			t.Curves[loss] = append(t.Curves[loss], point{X: p.X, Error: p.Error, Price: p.Price})
		}
		if err := checkCurve(t.Curves[loss]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// buyArgs resolves an abstract buy against a reference tenant.
func buyArgs(t *tenant, o op) (loss string, value float64) {
	loss = t.Losses[pick(o.Loss, len(t.Losses))]
	pts := t.Curves[loss]
	return loss, optionValue(pts, o.Option, pick(o.Knot, len(pts)))
}

func toPurchase(p *market.Purchase) *purchase {
	return &purchase{Offering: p.Offering, Loss: p.Loss, X: p.X, NCP: p.NCP, Price: p.Price,
		BrokerFee: p.BrokerFee, SellerProceeds: p.SellerProceeds, ExpectedError: p.ExpectedError, Weights: p.Weights}
}

// brokerBuy is the market layer's buy for one of the three options.
func brokerBuy(b *market.Broker, offering, loss string, option int, value float64) (*market.Purchase, error) {
	switch option {
	case 0:
		return b.BuyAtQuality(offering, loss, value)
	case 1:
		return b.BuyWithErrorBudget(offering, loss, value)
	default:
		return b.BuyWithPriceBudget(offering, loss, value)
	}
}

// serverAndRegistry replays the buy workload's purchases through the
// HTTP handler stack nimbusd serves (middleware, access log, telemetry)
// and through the registry, and the browse workload's reads through the
// handler, on a durable registry seeded like the daemon's.
func (s *suite) serverAndRegistry() error {
	root := s.tr.begin("suite.server_registry", 0)
	defer s.tr.finish(root)
	tel := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(tel)
	r, err := registry.Open(registry.Config{
		Root: filepath.Join(s.dir, "data"), Commission: suiteCommission,
		Sync: journal.SyncInterval, Telemetry: tel,
	})
	if err != nil {
		return err
	}
	defer closeLogged(r)
	if err := s.seedSuite(r, root); err != nil {
		return err
	}
	if s.ref, _, err = referenceOf(r); err != nil {
		return err
	}
	accessLog, err := os.Create(filepath.Join(s.dir, "access.log"))
	if err != nil {
		return err
	}
	defer closeLogged(accessLog)
	logf := log.New(accessLog, "", log.LstdFlags).Printf
	h := server.WithMiddleware(server.NewMulti(r, server.WithTelemetry(tel), server.WithLogger(logf)), logf, tel)

	// server.buy_us: ServeHTTP of a tenant buy through WithMiddleware.
	bs := newBuyStream(s.seed, 0, len(s.ref))
	var respBytes int
	buyUS := make([]float64, 0, suiteBuys)
	for i := 0; i < suiteBuys; i++ {
		o := bs.next()
		t := s.ref[o.Tenant]
		loss, value := buyArgs(t, o)
		body, err := json.Marshal(buyRequest{t.Offering, loss, options[o.Option], value})
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/api/v1/datasets/"+t.ID+"/buy", bytes.NewReader(body))
		w := httptest.NewRecorder()
		id := s.tr.begin("server.buy", root)
		h.ServeHTTP(w, req)
		buyUS = append(buyUS, s.tr.finish(id).Seconds())
		respBytes += w.Body.Len()
		var p purchase
		if w.Code != http.StatusOK {
			return fmt.Errorf("in-process buy %s: %d %s", t.ID, w.Code, strings.TrimSpace(w.Body.String()))
		}
		s.check(json.Unmarshal(w.Body.Bytes(), &p))
		s.check(checkBuy(t.Curves[loss], o.Option, value, t.D, &p))
	}
	s.setMedian("server.buy_us", buyUS)
	s.set("server.buy_resp_bytes", float64(respBytes)/suiteBuys, suiteBuys)

	// registry.buy_us: Market.Buy, the drain-aware journaled buy.
	bs = newBuyStream(s.seed, 1, len(s.ref))
	regUS := make([]float64, 0, suiteBuys)
	for i := 0; i < suiteBuys; i++ {
		o := bs.next()
		t := s.ref[o.Tenant]
		m, err := r.Get(t.ID)
		if err != nil {
			return err
		}
		loss, value := buyArgs(t, o)
		id := s.tr.begin("registry.buy", root)
		p, err := m.Buy(t.Offering, loss, options[o.Option], value)
		regUS = append(regUS, s.tr.finish(id).Seconds())
		if err != nil {
			return fmt.Errorf("in-process registry buy %s: %w", t.ID, err)
		}
		s.check(checkBuy(t.Curves[loss], o.Option, value, t.D, toPurchase(p)))
	}
	s.setMedian("registry.buy_us", regUS)

	// server.read_us: the browse workload's reads through the handler.
	var reads []op
	for _, a := range browseSchedule(s.seed, len(s.ref), time.Duration(2*suiteReads/browseRate*float64(time.Second))) {
		if a.Op.Kind.isRead() && len(reads) < suiteReads {
			reads = append(reads, a.Op)
		}
	}
	readUS := make([]float64, 0, len(reads))
	for _, o := range reads {
		t := s.ref[o.Tenant]
		path := "/api/v1/datasets"
		switch o.Kind {
		case opCurve:
			path += "/" + t.ID + "/curve?offering=" + t.Offering + "&loss=" + t.Losses[pick(o.Loss, len(t.Losses))]
		case opMenu:
			path += "/" + t.ID + "/menu"
		case opStats:
			path += "/" + t.ID + "/stats"
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		id := s.tr.begin("server.read", root)
		h.ServeHTTP(w, req)
		readUS = append(readUS, s.tr.finish(id).Seconds())
		if w.Code != http.StatusOK {
			return fmt.Errorf("in-process read %s: %d", path, w.Code)
		}
		if o.Kind == opCurve {
			var cr struct {
				Points []point `json:"points"`
			}
			s.check(json.Unmarshal(w.Body.Bytes(), &cr))
			s.check(checkCurve(cr.Points))
		}
	}
	s.setMedian("server.read_us", readUS)

	// Leave a copy of the data dir with the journaled sales behind, as a
	// SIGKILL would: the journal's appends are already written to the
	// segment files, and Close would compact them away.
	return copyDir(filepath.Join(s.dir, "data"), filepath.Join(s.dir, "crashed"))
}

// marketLayer times the no-journal broker: buys alone and with two
// concurrent callers on one offering, their allocations and retained
// heap, the sale record marshal and the statement read.
func (s *suite) marketLayer() error {
	root := s.tr.begin("suite.market", 0)
	defer s.tr.finish(root)
	r, err := registry.Open(registry.Config{Commission: suiteCommission, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		return err
	}
	defer closeLogged(r)
	if err := s.seedSuite(r, root); err != nil {
		return err
	}
	ref, ms, err := referenceOf(r)
	if err != nil {
		return err
	}
	s.memMarket = ms
	bs := newBuyStream(s.seed, 0, len(ref))
	ops := make([]op, suiteBuys)
	for i := range ops {
		ops[i] = bs.next()
	}
	buy := func(o op) (*market.Purchase, error) {
		t := ref[o.Tenant]
		loss, value := buyArgs(t, o)
		p, err := brokerBuy(ms[o.Tenant].Broker, t.Offering, loss, o.Option, value)
		if err == nil {
			s.check(checkBuy(t.Curves[loss], o.Option, value, t.D, toPurchase(p)))
		}
		return p, err
	}
	var firstErr error
	s.setMedian("market.buy_us", s.tr.timed("market.buy", root, len(ops), func(i int) {
		p, err := buy(ops[i])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if p != nil {
			s.sales = append(s.sales, *p)
		}
	}))
	if firstErr != nil {
		return fmt.Errorf("in-process broker buy: %w", firstErr)
	}

	// Two concurrent callers on one offering: the wait on its shard.
	t0, b0 := ref[0], ms[0].Broker
	var mu sync.Mutex
	var c2 []float64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := newBuyStream(s.seed, w, len(ref))
			var local []float64
			for i := 0; i < suiteBuys/2; i++ {
				o := st.next()
				loss, value := buyArgs(t0, o)
				id := s.tr.begin("market.buy_c2", root)
				_, err := brokerBuy(b0, t0.Offering, loss, o.Option, value)
				local = append(local, s.tr.finish(id).Seconds())
				if err != nil {
					s.check(fmt.Errorf("%w: concurrent buy: %v", errCheck, err))
				}
			}
			mu.Lock()
			c2 = append(c2, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	s.setMedian("market.buy_us_c2", c2)

	// Allocations per buy, and heap retained per sale after GC. The loop
	// calls the broker alone, so the benchmark's own checks are not
	// counted.
	args := make([]struct {
		loss  string
		value float64
	}, len(ops))
	for i, o := range ops {
		args[i].loss, args[i].value = buyArgs(ref[o.Tenant], o)
	}
	var m0, m1 runtime.MemStats
	id := s.tr.begin("market.buy_allocs_loop", root)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, o := range ops {
		//lint:ignore no-dropped-error these buys succeeded in the timed loop above; this loop only counts allocations
		brokerBuy(ms[o.Tenant].Broker, ref[o.Tenant].Offering, args[i].loss, o.Option, args[i].value)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	s.tr.finish(id)
	n := float64(len(ops))
	s.set("market.buy_allocs", float64(m1.Mallocs-m0.Mallocs)/n, len(ops))
	s.set("market.buy_bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/n, len(ops))
	s.set("market.retained_bytes_per_sale", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/n, len(ops))

	var marshalErr error
	s.setMedian("market.marshal_us", s.tr.timed("market.marshal", root, len(s.sales), func(i int) {
		if _, err := market.MarshalSale(s.sales[i]); err != nil && marshalErr == nil {
			marshalErr = err
		}
	}))
	if marshalErr != nil {
		return marshalErr
	}
	s.setMedian("market.statement_us", s.tr.timed("market.statement", root, suiteReads, func(i int) {
		ms[i%len(ms)].Broker.Statement()
	}))
	return nil
}

// small times the calls too short to time one by one: quotes, noise
// draws, stream splits and a telemetry observation.
func (s *suite) small() error {
	root := s.tr.begin("suite.small", 0)
	defer s.tr.finish(root)
	type quote struct {
		c      *pricing.PriceErrorCurve
		option int
		value  float64
	}
	bs := newBuyStream(s.seed, 0, len(s.memMarket))
	quotes := make([]quote, suiteBuys)
	for i := range quotes {
		o := bs.next()
		m := s.memMarket[o.Tenant]
		off, err := m.Broker.Offering(m.Broker.Menu()[0])
		if err != nil {
			return err
		}
		loss, value := buyArgs(s.ref[o.Tenant], o)
		c, err := off.Curve(loss)
		if err != nil {
			return err
		}
		quotes[i] = quote{c, o.Option, value}
	}
	var quoteErr error
	s.setMedian("pricing.quote_ns", s.tr.batched("pricing.quote", root, 30, len(quotes), func(i int) {
		q := quotes[i%len(quotes)]
		var err error
		switch q.option {
		case 0:
			q.c.PointAt(q.value)
		case 1:
			_, err = q.c.PointForErrorBudget(q.value)
		default:
			_, err = q.c.PointForPriceBudget(q.value)
		}
		if err != nil && quoteErr == nil {
			quoteErr = err
		}
	}))
	if quoteErr != nil {
		return quoteErr
	}

	// One fresh Split per draw, as the broker's finalize does.
	for _, c := range []struct {
		metric, id string
	}{{"noise.perturb_us.d9", "CASP"}, {"noise.perturb_us.d90", "YearMSD"}} {
		var o *market.Offering
		for _, m := range s.memMarket {
			if m.ID == c.id {
				off, err := m.Broker.Offering(m.Broker.Menu()[0])
				if err != nil {
					return err
				}
				o = off
			}
		}
		if o == nil {
			return fmt.Errorf("no %s tenant for %s", c.id, c.metric)
		}
		src := rng.NewLocked(s.seed)
		s.setMedian(c.metric, s.tr.timed(c.metric, root, suiteBuys, func(i int) {
			x := s.sales[i%len(s.sales)].X
			o.Mechanism.Perturb(o.Optimal, 1/x, src.Split())
		}))
	}

	src := rng.NewLocked(s.seed)
	s.setMedian("rng.split_ns", s.tr.batched("rng.split", root, 30, 100, func(int) { src.Split() }))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1000; i++ {
		src.Split()
	}
	runtime.ReadMemStats(&m1)
	s.set("rng.split_bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/1000, 1000)

	h := telemetry.NewRegistry().Histogram("nimbusbench_observe_seconds", nil)
	s.setMedian("telemetry.observe_ns", s.tr.batched("telemetry.observe", root, 30, 1000, func(i int) {
		h.Observe(float64(i%700) * 1e-5)
	}))
	return nil
}

// journalLayer times journal appends of the buy workload's sale records
// under the interval policy, their size on disk, replay of 10k records,
// a bare fsync, and compaction of a list-cycle-sized ledger.
func (s *suite) journalLayer() error {
	root := s.tr.begin("suite.journal", 0)
	defer s.tr.finish(root)
	recs := make([][]byte, len(s.sales))
	for i, p := range s.sales {
		rec, err := market.MarshalSale(p)
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	dir := filepath.Join(s.dir, "journal-append")
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncInterval})
	if err != nil {
		return err
	}
	var appendErr error
	s.setMedian("journal.append_us", s.tr.timed("journal.append", root, len(recs), func(i int) {
		if err := j.Append(recs[i]); err != nil && appendErr == nil {
			appendErr = err
		}
	}))
	if err := j.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	s.set("journal.bytes_per_sale", float64(size)/float64(len(recs)), len(recs))

	// Replay: 10k buy-sized records written, closed without compaction,
	// then Open (which scans and recovers) plus Replay.
	dir = filepath.Join(s.dir, "journal-replay")
	if j, err = journal.Open(dir, journal.Options{Sync: journal.SyncNever}); err != nil {
		return err
	}
	for i := 0; i < suiteReplayN; i++ {
		if err := j.Append(recs[i%len(recs)]); err != nil {
			//lint:ignore no-dropped-error the append failure is what gets reported
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	var replayErr error
	s.setMedian("journal.replay_ms_per_10k", s.tr.timed("journal.replay", root, 3, func(int) {
		n, err := replayCount(dir)
		if err == nil && n != suiteReplayN {
			err = fmt.Errorf("%w: replayed %d records, wrote %d", errCheck, n, suiteReplayN)
		}
		if err != nil {
			replayErr = err
		}
	}))
	if replayErr != nil {
		return replayErr
	}
	m := s.res.Metrics["journal.replay_ms_per_10k"]
	m.Value *= 1e4 / suiteReplayN
	s.res.Metrics["journal.replay_ms_per_10k"] = m

	// A bare fsync of one dirty record.
	dir = filepath.Join(s.dir, "journal-fsync")
	if j, err = journal.Open(dir, journal.Options{Sync: journal.SyncNever}); err != nil {
		return err
	}
	var syncErr error
	fs := make([]float64, 0, suiteFsyncs)
	for i := 0; i < suiteFsyncs; i++ {
		if err := j.Append(recs[i]); err != nil {
			syncErr = err
			break
		}
		id := s.tr.begin("journal.fsync", root)
		err := j.Sync()
		fs = append(fs, s.tr.finish(id).Seconds())
		if err != nil {
			syncErr = err
			break
		}
	}
	if err := j.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	if syncErr != nil {
		return syncErr
	}
	s.setMedian("journal.fsync_us", fs)

	// Compaction of a delisted list-workload tenant: listBuys sales.
	var compact []float64
	for k := 0; k < len(palette); k++ {
		dir := filepath.Join(s.dir, fmt.Sprintf("journal-compact-%d", k))
		j, err := journal.Open(dir, journal.Options{Sync: journal.SyncInterval})
		if err != nil {
			return err
		}
		b := market.NewBroker(s.seed)
		for i := 0; i < listBuys; i++ {
			p := s.sales[(k*listBuys+i)%len(s.sales)]
			b.ReplaySale(p)
			if err := j.Append(recs[(k*listBuys+i)%len(recs)]); err != nil {
				//lint:ignore no-dropped-error the append failure is what gets reported
				j.Close()
				return err
			}
		}
		id := s.tr.begin("journal.compact", root)
		err = j.Compact(b.SaveLedger)
		compact = append(compact, s.tr.finish(id).Seconds())
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	s.setMedian("journal.compact_ms", compact)
	return nil
}

// listPipeline lists the list workload's first round on a durable
// registry (List, a few buys, Delist) and replays the same specs' listing
// pipeline stage by stage: dataset build, fit, error transformation per
// loss and the revenue DP.
func (s *suite) listPipeline() error {
	root := s.tr.begin("suite.list", 0)
	defer s.tr.finish(root)
	r, err := registry.Open(registry.Config{
		Root: filepath.Join(s.dir, "list-data"), Commission: suiteCommission, Sync: journal.SyncInterval,
	})
	if err != nil {
		return err
	}
	defer closeLogged(r)
	var lists, delists, builds, fits, transforms, dps []float64
	for _, spec := range listRound(s.seed, 0) {
		rs := registry.Spec{ID: spec.ID, Owner: "nimbusbench", Generator: spec.Generator, Rows: spec.Rows, Seed: spec.Seed}
		if spec.CSV != nil {
			rs = registry.Spec{ID: spec.ID, Owner: "nimbusbench", CSV: true, Task: "regression", Target: "y", Seed: spec.Seed}
		}
		id := s.tr.begin("registry.list", root)
		m, err := r.List(rs, spec.CSV)
		lists = append(lists, s.tr.finish(id).Seconds())
		if err != nil {
			return fmt.Errorf("in-process list %s: %w", spec.ID, err)
		}
		t, err := tenantOf(m)
		if err != nil {
			return err
		}
		for _, o := range spec.Buys {
			loss, value := buyArgs(t, o)
			p, err := m.Buy(t.Offering, loss, options[o.Option], value)
			if err != nil {
				return fmt.Errorf("in-process list-cycle buy: %w", err)
			}
			s.check(checkBuy(t.Curves[loss], o.Option, value, t.D, toPurchase(p)))
		}
		id = s.tr.begin("registry.delist", root)
		st, err := r.Delist(spec.ID)
		delists = append(delists, s.tr.finish(id).Seconds())
		if err != nil {
			return err
		}
		if st.Sales != len(spec.Buys) {
			s.check(fmt.Errorf("%w: delist %s statement has %d sales, bought %d", errCheck, spec.ID, st.Sales, len(spec.Buys)))
		}

		// The same pipeline, stage by stage, under one parent span.
		pipe := s.tr.begin("pipeline", root)
		var d *dataset.Dataset
		var pair *dataset.Pair
		id = s.tr.begin("dataset.build", pipe)
		d, err = buildDataset(spec)
		if err == nil {
			pair, err = dataset.NewPair(d, rng.New(spec.Seed+1))
		}
		builds = append(builds, s.tr.finish(id).Seconds())
		if err != nil {
			return err
		}
		var model ml.Model = ml.LinearRegression{Ridge: 1e-4}
		if pair.Train.Task == dataset.Classification {
			model = ml.LogisticRegression{Ridge: 1e-4}
		}
		id = s.tr.begin("ml.fit", pipe)
		optimal, err := model.Fit(pair.Train)
		fits = append(fits, s.tr.finish(id).Seconds())
		if err != nil {
			return err
		}
		curves := map[string]*pricing.ErrorCurve{}
		for k, loss := range ml.DefaultReportLosses(model) {
			id = s.tr.begin("pricing.transform", pipe)
			ec, err := pricing.MonteCarloTransform(pricing.TransformConfig{
				Optimal: optimal, Loss: loss, Data: pair.Test, Mechanism: noise.Gaussian{},
				Xs: pricing.DefaultGrid(m.Spec.Grid), Samples: m.Spec.Samples, Seed: spec.Seed + 3 + int64(k),
			})
			transforms = append(transforms, s.tr.finish(id).Seconds())
			if err != nil {
				return err
			}
			curves[loss.Name()] = ec
		}
		scale := m.Spec.ValueScale
		points := market.BuyerPointsFromResearch(curves[model.TrainLoss().Name()], market.Research{
			Value:  func(e float64) float64 { return scale / (1 + e) },
			Demand: func(e float64) float64 { return 1 },
		})
		prob, err := opt.NewProblem(points)
		if err != nil {
			return err
		}
		id = s.tr.begin("opt.dp", pipe)
		_, _, err = opt.MaximizeRevenueDP(prob)
		dps = append(dps, s.tr.finish(id).Seconds())
		s.tr.finish(pipe)
		if err != nil {
			return err
		}
	}
	s.setMedian("registry.list_s", lists)
	s.setMedian("registry.delist_ms", delists)
	s.setMedian("dataset.build_ms", builds)
	s.setMedian("ml.fit_ms", fits)
	s.setMedian("pricing.transform_s", transforms)
	s.setMedian("opt.dp_ms", dps)
	return nil
}

// reopen times registry.Open on copies of the data dir the buy replay
// left behind, as the daemon recovers after SIGKILL.
func (s *suite) reopen() error {
	root := s.tr.begin("suite.open", 0)
	defer s.tr.finish(root)
	var opens []float64
	for k := 0; k < suiteOpens; k++ {
		dir := filepath.Join(s.dir, fmt.Sprintf("open-%d", k))
		if err := copyDir(filepath.Join(s.dir, "crashed"), dir); err != nil {
			return err
		}
		id := s.tr.begin("registry.open", root)
		r, err := registry.Open(registry.Config{Root: dir, Commission: suiteCommission, Sync: journal.SyncInterval})
		opens = append(opens, s.tr.finish(id).Seconds())
		if err != nil {
			return err
		}
		st := r.Stats()
		if err := r.Close(); err != nil {
			return err
		}
		if st.Sales != 2*suiteBuys {
			s.check(fmt.Errorf("%w: reopened registry has %d sales, replay made %d", errCheck, st.Sales, 2*suiteBuys))
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	s.setMedian("registry.open_s", opens)
	return nil
}

// buildDataset materializes a list spec's dataset as the registry does.
func buildDataset(spec listSpec) (*dataset.Dataset, error) {
	if spec.CSV != nil {
		return dataset.ReadCSV(bytes.NewReader(spec.CSV), spec.ID, dataset.Regression, "y")
	}
	cfg := dataset.GenConfig{Rows: spec.Rows, Seed: spec.Seed}
	switch spec.Generator {
	case "Simulated1":
		return dataset.Simulated1(cfg), nil
	case "Simulated2":
		return dataset.Simulated2(cfg), nil
	default:
		return dataset.StandIn(spec.Generator, cfg)
	}
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		//lint:ignore no-dropped-error the source is only read; a close failure cannot lose data
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			//lint:ignore no-dropped-error the copy failure is what gets reported
			out.Close()
			return err
		}
		return out.Close()
	})
}

// replayCount opens a journal (which recovers it) and replays every
// record, returning how many there were.
func replayCount(dir string) (int, error) {
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		return 0, err
	}
	n := 0
	err = j.Replay(func([]byte) error { n++; return nil })
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// closeLogged closes a temporary resource of the replay. Every measurement
// it served is already taken, so a failure is only worth a note.
func closeLogged(c io.Closer) {
	if err := c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "nimbusbench: close:", err)
	}
}

// removeAll deletes a temporary directory; a failure is only worth a note.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "nimbusbench: cleanup:", err)
	}
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
