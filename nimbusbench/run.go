package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRuns is how many cold starts a run times for setup_s; the median is
// reported and the last daemon serves the workload.
const setupRuns = 3

const buyRoute = `route="POST /api/v1/datasets/{id}/buy"`

// e2eRun is the state of one end-to-end pass against a live daemon.
type e2eRun struct {
	cfg   config
	res   *Result
	dir   string // run directory: data dirs and daemon logs
	bin   string
	d     *daemon
	c     *client
	conns int
	round int // next list palette round; rounds, and so dataset IDs, never repeat within a run
}

// runE2E runs the workload end to end. With tr set it is the traced
// run's daemon pass instead: one cold start, then tracedPass.
func runE2E(ctx context.Context, cfg config, res *Result, tr *tracer) error {
	dir := filepath.Join(cfg.work, "runs", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer removeAll(dir)
	e := &e2eRun{cfg: cfg, res: res, dir: dir, bin: filepath.Join(cfg.work, "bin", "nimbusd")}
	defer func() { e.d.kill() }()

	setups := setupRuns
	if tr != nil {
		setups = 1
	}
	var setup []float64
	for i := 0; i < setups; i++ {
		if err := stopped(ctx); err != nil {
			return err
		}
		data := filepath.Join(dir, fmt.Sprintf("data-%d", i))
		d, took, err := startDaemon(e.bin, data, filepath.Join(dir, fmt.Sprintf("daemon-%d.log", i)), cfg.seed)
		if err != nil {
			return err
		}
		setup = append(setup, took.Seconds())
		if i < setups-1 {
			d.kill()
			if err := os.RemoveAll(data); err != nil {
				return err
			}
			continue
		}
		e.d = d
	}
	res.set("setup_s", "s", median(setup), len(setup))

	e.conns = map[string]int{wlBuy: buyConns, wlBrowse: browseConns, wlList: listConns}[cfg.workload]
	if e.conns > runtime.NumCPU() {
		e.conns = runtime.NumCPU()
	}
	res.Fingerprint.Conns["measured"] = e.conns
	if cfg.workload == wlBuy && tr == nil {
		res.Fingerprint.Conns["fill"] = e.conns
	}
	res.Fingerprint.Conns["probe_read"] = 1
	res.Fingerprint.Conns["probe_list"] = 1
	e.c = newClient(e.d.addr, e.conns)
	defer func() { e.c.close() }()
	res.Attempted++
	if err := e.c.fetchReference(); err != nil {
		res.Failed++
		return err
	}
	if err := stopped(ctx); err != nil {
		return err
	}
	if tr != nil {
		return e.tracedPass(ctx, tr)
	}
	if cfg.workload == wlBuy {
		// Crash a daemon holding a fixed number of sales, so that every run
		// replays the same journal; then measure on the recovered daemon.
		if err := e.fill(ctx); err != nil {
			return err
		}
		if err := e.readRSS(fmt.Sprintf("after %d purchases", fillSales)); err != nil {
			return err
		}
		if err := e.crashAndRecover(ctx); err != nil {
			return err
		}
	}
	length := time.Duration(cfg.seconds) * time.Second
	recs, phase, err := e.measure(ctx, length, e.c.run, nil)
	if err != nil {
		return err
	}
	res.count(recs)
	report(res, cfg.workload, recs, phase)
	if err := e.probe(ctx); err != nil {
		return err
	}
	if cfg.workload != wlBuy {
		if err := e.readRSS("after the probes"); err != nil {
			return err
		}
		if err := e.crashAndRecover(ctx); err != nil {
			return err
		}
	}
	// Every purchase acknowledged since the last restart is on the books
	// too.
	res.Attempted++
	if err := e.c.verifyBooks(); err != nil {
		return fmt.Errorf("after the measured phase: %w", err)
	}
	e.d.stop()
	e.d = nil
	return nil
}

// fillSales is how many purchases the buy workload makes, untimed, before
// it reads the daemon's memory and crashes it. The daemon's memory and its
// journal grow with every sale, and the number of sales a timed phase
// makes follows the host's speed; after a fixed number, rss_peak_mb and
// recover_s measure the same work on every run.
const fillSales = 20000

// fill makes exactly fillSales purchases on the measured connections,
// closed loop and untimed, from streams of their own.
func (e *e2eRun) fill(ctx context.Context) error {
	streams := make([]*buyStream, e.conns)
	for w := range streams {
		streams[w] = newBuyStream(e.cfg.seed, buyConns+w, len(e.c.ref))
	}
	recs := countedLoop(ctx, e.conns, fillSales, func(w int) op { return streams[w].next() }, e.c.run)
	if err := stopped(ctx); err != nil {
		return err
	}
	for _, r := range recs {
		if r.Err != nil {
			return fmt.Errorf("filling the journal: %w", r.Err)
		}
	}
	e.res.Attempted += len(recs)
	return nil
}

// readRSS records the daemon's VmHWM as rss_peak_mb.
func (e *e2eRun) readRSS(when string) error {
	rss, err := e.d.vmHWM()
	if err != nil {
		return err
	}
	e.res.Metrics["rss_peak_mb"] = Metric{Value: rss, Unit: "MB", Source: when}
	return nil
}

// tracedPass runs the measured phase as four quarters, alternately
// without and with a client span around every request, with /metrics
// scraped around all four. The traced quarters' end-to-end numbers go into
// the result and are printed next to the untraced quarters', taken on the
// same daemon in the same minute, so the difference is the tracing
// overhead. Every buy of the four quarters feeds the daemon-side layer
// metrics.
func (e *e2eRun) tracedPass(ctx context.Context, tr *tracer) error {
	spanned := func(o op) error {
		defer tr.span("client."+o.Kind.String(), 0)()
		return e.c.run(o)
	}
	before, err := e.c.scrape()
	if err != nil {
		return err
	}
	quarter := time.Duration(e.cfg.seconds) * time.Second / 4
	var plain, traced, all []rec
	var plainPhase, tracedPhase time.Duration
	for q := 0; q < 4; q++ {
		exec, span, recs, phase := e.c.run, (*tracer)(nil), &plain, &plainPhase
		if q%2 == 1 {
			exec, span, recs, phase = spanned, tr, &traced, &tracedPhase
		}
		rs, took, err := e.measure(ctx, quarter, exec, span)
		if err != nil {
			return err
		}
		// Lay each kind's quarters end to end for the windowed summary.
		for _, r := range rs {
			r.At += *phase
			*recs = append(*recs, r)
		}
		*phase += took
		all = append(all, rs...)
	}
	after, err := e.c.scrape()
	if err != nil {
		return err
	}
	e.res.count(all)
	report(e.res, e.cfg.workload, traced, tracedPhase)
	untraced := &Result{Workload: e.cfg.workload, Seed: e.cfg.seed, Fingerprint: e.res.Fingerprint, Metrics: map[string]Metric{}}
	report(untraced, e.cfg.workload, plain, plainPhase)
	tracedE2E := &Result{Workload: e.cfg.workload, Seed: e.cfg.seed, Fingerprint: e.res.Fingerprint, Metrics: map[string]Metric{}}
	for n, m := range e.res.Metrics {
		if _, ok := untraced.Metrics[n]; ok {
			tracedE2E.Metrics[n] = m
		}
	}
	fmt.Println("tracing overhead: untraced quarters -> traced quarters of the same daemon pass")
	if err := compare(os.Stdout, untraced, tracedE2E); err != nil {
		return err
	}
	tr.daemonLayers(e.res, all, before, after)
	e.d.stop()
	e.d = nil
	return nil
}

// measure drives the workload for length and returns its records and the
// phase's wall time. With tr set, each list cycle is also a span.
func (e *e2eRun) measure(ctx context.Context, length time.Duration, exec func(op) error, tr *tracer) ([]rec, time.Duration, error) {
	seed, tenants := e.cfg.seed, len(e.c.ref)
	start := time.Now()
	var recs []rec
	switch e.cfg.workload {
	case wlBuy:
		streams := make([]*buyStream, e.conns)
		for w := range streams {
			streams[w] = newBuyStream(seed, w, tenants)
		}
		recs = closedLoop(ctx, e.conns, length, func(w int) op { return streams[w].next() }, exec)
	case wlBrowse:
		var late []time.Duration
		recs, late = openLoop(ctx, e.conns, browseSchedule(seed, tenants, length), exec)
		lat := make([]float64, len(late))
		for i, l := range late {
			lat[i] = l.Seconds() * 1e3
		}
		d := summarize(lat, 0.99)
		e.res.Metrics["gen_lateness_p99_ms"] = Metric{Value: d.Tail, Unit: "ms", N: d.N, TailAt: d.TailAt}
	case wlList:
		return e.listRounds(ctx, length, tr)
	}
	return recs, time.Since(start), nil
}

// listRounds runs list cycles for length, in whole palette rounds so that
// every seed lists the same mix. With tr set, each cycle is also a span.
func (e *e2eRun) listRounds(ctx context.Context, length time.Duration, tr *tracer) ([]rec, time.Duration, error) {
	start := time.Now()
	var recs []rec
	for ; time.Since(start) < length; e.round++ {
		for _, s := range listRound(e.cfg.seed, e.round) {
			if err := stopped(ctx); err != nil {
				return nil, 0, err
			}
			end := func() {}
			if tr != nil {
				end = tr.span("client.cycle", 0)
			}
			recs = append(recs, e.c.listCycle(s, start)...)
			end()
		}
	}
	return recs, time.Since(start), nil
}

// report turns a measured phase into end-to-end metrics, each over the
// calmer half of the phase. On buy the closed loop sets the buy rate, so
// it is taken over the same windows as the latencies; elsewhere the
// arrival schedule or the list cycles set it, and it is the whole phase's
// count over its length.
func report(res *Result, workload string, recs []rec, phase time.Duration) {
	const src = "measured phase"
	buys := windowed(recs, phase, is(opBuy), 0.99)
	rate, n := buys.Rate, buys.N
	if workload != wlBuy {
		_, n = countOK(recs, is(opBuy))
		rate = float64(n) / phase.Seconds()
	}
	res.Metrics["buy_per_s"] = Metric{Value: rate, Unit: "1/s", N: n, Source: src}
	res.setWindowed("buy_p50_ms", "buy_p99_ms", "ms", 1e3, buys, src)
	if _, n := countOK(recs, opKind.isRead); n > 0 {
		res.setWindowed("read_p50_ms", "read_p99_ms", "ms", 1e3, windowed(recs, phase, opKind.isRead, 0.99), src)
	}
	if _, n := countOK(recs, is(opList)); n > 0 {
		reportListing(res, recs, phase, src)
	}
}

// reportListing records list_p50_s and delist_p50_ms.
func reportListing(res *Result, recs []rec, phase time.Duration, src string) {
	res.setWindowed("list_p50_s", "", "s", 1, windowed(recs, phase, is(opList), 0.5), src)
	res.setWindowed("delist_p50_ms", "", "ms", 1e3, windowed(recs, phase, is(opDelist), 0.5), src)
}

func is(k opKind) func(opKind) bool { return func(x opKind) bool { return x == k } }

// countOK returns the successful records that match, and how many.
func countOK(recs []rec, match func(opKind) bool) ([]float64, int) {
	var lat []float64
	for _, r := range recs {
		if r.Err == nil && match(r.Kind) {
			lat = append(lat, r.Lat.Seconds())
		}
	}
	return lat, len(lat)
}

// probe measures, after the measured phase and on one connection, the
// end-to-end metrics the workload's own traffic does not produce: reads
// on buy and list (the browse read mix, closed loop), list cycles of the
// list workload's palette on buy and browse. One connection leaves the
// host a core to spare, so a core stolen by another tenant of the host
// stalls the probe less.
func (e *e2eRun) probe(ctx context.Context) error {
	const src = "probe"
	if _, ok := e.res.Metrics["read_p50_ms"]; !ok {
		rs := newReadStream(e.cfg.seed, 0, len(e.c.ref))
		recs := closedLoop(ctx, 1, probeRead, func(int) op { return rs.next() }, e.c.run)
		e.res.count(recs)
		e.res.setWindowed("read_p50_ms", "read_p99_ms", "ms", 1e3, windowed(recs, probeRead, opKind.isRead, 0.99), src)
	}
	if _, ok := e.res.Metrics["list_p50_s"]; !ok {
		recs, took, err := e.listRounds(ctx, probeList, nil)
		if err != nil {
			return err
		}
		e.res.count(recs)
		reportListing(e.res, recs, took, src)
	}
	return stopped(ctx)
}

// recoverRuns is how many SIGKILL-and-restart cycles a run times for
// recover_s; the median is reported.
const recoverRuns = 3

// crashAndRecover kills the daemon with SIGKILL, restarts it on the same
// data dir, times it to healthy and checks every acknowledged sale is
// back, recoverRuns times. The last daemon keeps running, and the run's
// client is moved to it.
func (e *e2eRun) crashAndRecover(ctx context.Context) error {
	data := filepath.Join(e.dir, fmt.Sprintf("data-%d", setupRuns-1))
	var took []float64
	for i := 0; i < recoverRuns; i++ {
		if err := stopped(ctx); err != nil {
			return err
		}
		e.d.kill()
		e.d = nil
		d, t, err := startDaemon(e.bin, data, filepath.Join(e.dir, fmt.Sprintf("daemon-recovered-%d.log", i)), e.cfg.seed)
		if err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		e.d = d
		took = append(took, t.Seconds())
		c := newClient(d.addr, e.conns)
		c.ref, c.led = e.c.ref, e.c.led
		e.c.close()
		e.c = c
		e.res.Attempted++
		if err := c.verifyBooks(); err != nil {
			return fmt.Errorf("after recovery: %w", err)
		}
	}
	e.res.set("recover_s", "s", median(took), len(took))
	sales := 0
	for _, t := range e.c.ref {
		sales += e.c.led.get(t.ID).Sales
	}
	e.res.Metrics["recovered_sales"] = Metric{Value: float64(sales), Unit: "count"}
	return nil
}
