// Command nimbusd runs the Nimbus marketplace as an HTTP service: a
// registry of tenant markets, one per listed dataset, served through the
// API documented in internal/server.
//
//	nimbusd -addr :8080 -scale 0.001 -seed 42 -data-dir /var/lib/nimbus
//
// With -data-dir, every market keeps its spec and its own write-ahead
// journal under the data directory: each sale is appended and (depending
// on -journal-sync) fsynced before the buyer sees it, startup recovers
// every listed dataset's manifest, snapshot and record tail, and graceful
// shutdown compacts each journal into a fresh snapshot. The books survive
// kill -9. Without -data-dir the registry lives in memory and dies with
// the process.
//
// A registry that starts empty is seeded with the six Table 3 datasets
// (row counts follow -scale), so a bare nimbusd serves one offering per
// dataset.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nimbus/internal/dataset"
	"nimbus/internal/journal"
	"nimbus/internal/registry"
	"nimbus/internal/server"
	"nimbus/internal/telemetry"
)

// config collects nimbusd's knobs; see the flag declarations in main for
// the semantics.
type config struct {
	addr       string
	scale      float64
	seed       int64
	samples    int
	gridN      int
	rate       float64
	commission float64

	journalSync     string
	journalSyncEvry time.Duration
	journalSegBytes int64

	dataDir    string
	tenantRate float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.Float64Var(&cfg.scale, "scale", 1e-3, "Table 3 row-count scale (1.0 = paper size)")
	flag.Int64Var(&cfg.seed, "seed", 42, "random seed")
	flag.IntVar(&cfg.samples, "samples", 200, "Monte-Carlo models per NCP when building curves")
	flag.IntVar(&cfg.gridN, "grid", 50, "offered quality grid size")
	flag.Float64Var(&cfg.rate, "rate", 50, "per-client request rate limit (requests/second; 0 disables)")
	flag.Float64Var(&cfg.commission, "commission", 0.1, "broker's cut of each sale, in [0, 1)")
	flag.StringVar(&cfg.journalSync, "journal-sync", "interval", "journal fsync policy: always, group, interval or never")
	flag.DurationVar(&cfg.journalSyncEvry, "journal-sync-every", journal.DefaultSyncEvery, "flush interval under -journal-sync=interval")
	flag.Int64Var(&cfg.journalSegBytes, "journal-segment-bytes", journal.DefaultSegmentBytes, "journal segment rotation threshold")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "data directory: each dataset market keeps its spec and journal here and is recovered at startup (empty = memory only)")
	flag.Float64Var(&cfg.tenantRate, "tenant-rate", 0, "per-dataset-market purchase rate limit (requests/second; 0 disables)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "nimbusd:", err)
		os.Exit(1)
	}
}

// serveUntilSignal runs the HTTP server until SIGINT/SIGTERM or a
// listener failure, draining in-flight requests on signal. It returns the
// listener error, if any; persisting the books belongs to the caller,
// after the drain.
func serveUntilSignal(addr string, handler http.Handler, ready func()) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		ready()
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		log.Printf("nimbusd: signal received, draining...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("nimbusd: shutdown: %v", err)
		}
	}
	return nil
}

// seedSuite lists the six Table 3 datasets as tenants of a freshly
// initialized registry, one market per dataset, IDs matching the paper's
// names and row counts following -scale.
func seedSuite(r *registry.Registry, cfg config, logf func(format string, args ...any)) error {
	logf("nimbusd: empty registry, seeding the Table 3 suite (scale %g)...", cfg.scale)
	for i, name := range registry.GeneratorNames() {
		spec := registry.Spec{
			ID:        name,
			Owner:     "nimbus",
			Generator: name,
			Rows:      dataset.Table3Rows(name, cfg.scale),
			Grid:      cfg.gridN,
			Samples:   cfg.samples,
			Seed:      cfg.seed + int64(i),
		}
		start := time.Now()
		if _, err := r.List(spec, nil); err != nil {
			return fmt.Errorf("seeding market %s: %w", name, err)
		}
		logf("nimbusd: listed dataset %s (%d rows) in %v", name, spec.Rows, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// openRegistry opens the registry under cfg.dataDir (memory-only when
// empty), recovering every listed market, and seeds the Table 3 suite when
// it comes up empty.
func openRegistry(cfg config, reg *telemetry.Registry, logf func(format string, args ...any)) (*registry.Registry, error) {
	policy, err := journal.ParseSyncPolicy(cfg.journalSync)
	if err != nil {
		return nil, err
	}
	r, err := registry.Open(registry.Config{
		Root:         cfg.dataDir,
		Commission:   cfg.commission,
		Sync:         policy,
		SyncEvery:    cfg.journalSyncEvry,
		SegmentBytes: cfg.journalSegBytes,
		Telemetry:    reg,
		Logf:         logf,
	})
	if err != nil {
		return nil, err
	}
	if r.Count() > 0 {
		logf("nimbusd: registry %s recovered %d dataset market(s)", cfg.dataDir, r.Count())
	} else if err := seedSuite(r, cfg, logf); err != nil {
		if cerr := r.Close(); cerr != nil {
			logf("nimbusd: closing registry: %v", cerr)
		}
		return nil, err
	}
	return r, nil
}

func run(cfg config) error {
	// One telemetry registry covers the whole serving stack: HTTP
	// middleware, rate limiters, every market's sale path and journal, and
	// Go runtime gauges. Scrape it at GET /metrics (Prometheus) or
	// GET /api/v1/metrics (JSON).
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	r, err := openRegistry(cfg, reg, log.Printf)
	if err != nil {
		return err
	}
	opts := []server.Option{server.WithTelemetry(reg)}
	if cfg.tenantRate > 0 {
		opts = append(opts, server.WithTenantRate(cfg.tenantRate, int(2*cfg.tenantRate)))
	}
	var handler http.Handler = server.NewMulti(r, opts...)
	if cfg.rate > 0 {
		rl := server.NewRateLimiter(cfg.rate, int(2*cfg.rate))
		rl.SetTelemetry(reg)
		handler = rl.Wrap(handler)
	}
	serveErr := serveUntilSignal(cfg.addr, server.WithMiddleware(handler, log.Printf, reg), func() {
		log.Printf("nimbusd: marketplace open on %s (%d dataset markets, %d offerings)",
			cfg.addr, r.Count(), len(r.Menu()))
	})
	// Close drains every market and compacts each tenant journal; the books
	// must be persisted even when the listener failed.
	st := r.Stats()
	if err := r.Close(); err != nil {
		if serveErr == nil {
			serveErr = err
		} else {
			log.Printf("nimbusd: closing registry: %v", err)
		}
	} else {
		log.Printf("nimbusd: registry closed: %d markets, %d sales, revenue %.2f",
			st.Markets, st.Sales, st.Gross)
	}
	return serveErr
}
