package perf

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"nimbus/internal/journal"
	"nimbus/internal/loadgen"
	"nimbus/internal/registry"
	"nimbus/internal/server"
	"nimbus/internal/telemetry"
)

// LoadOptions configures the in-process buy-path measurement.
type LoadOptions struct {
	// Concurrency is the closed-loop buyer count (default 8).
	Concurrency int
	// Duration bounds the run when Count is zero (default 5s).
	Duration time.Duration
	// Count runs an exact request total instead of a duration.
	Count int
	// Seed drives the market build and the replayable traffic mix
	// (default 42).
	Seed int64
	// Rows sizes the stand-in dataset backing each market (default 250).
	Rows int
	// Grid and Samples size each listed price–error curve (defaults 15
	// and 60, the integration-test shape).
	Grid    int
	Samples int
	// Sync is the tenant journals' fsync policy ("always", "group",
	// "interval", "never"). Default "group": SyncAlways durability with
	// concurrent sales amortized into shared fsyncs — the policy the
	// sharded buy path is built around.
	Sync string
	// Markets is how many one-offering tenant markets the registry lists
	// (default 1); loadgen round-robins buys across all of them.
	Markets int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o *LoadOptions) setDefaults() {
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Duration <= 0 && o.Count <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Rows <= 0 {
		o.Rows = 250
	}
	if o.Grid <= 0 {
		o.Grid = 15
	}
	if o.Samples <= 0 {
		o.Samples = 60
	}
	if o.Sync == "" {
		o.Sync = "group"
	}
	if o.Markets <= 0 {
		o.Markets = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// RunLoad measures the buy path end to end: a registry under a temp root
// lists opts.Markets seeded one-offering markets, each appending its sales
// to its own write-ahead journal under the selected policy (the
// production finalize path, not a stripped-down one). The full middleware
// + telemetry stack serves them through the tenant routes on a loopback
// listener, internal/loadgen drives them uncorked, and the server-side
// latency is read back from the tenant buy route's telemetry histogram —
// the series a production scrape exports.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadResult, error) {
	opts.setDefaults()
	policy, err := journal.ParseSyncPolicy(opts.Sync)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "nimbus-perf-registry-")
	if err != nil {
		return nil, err
	}
	defer func() {
		//lint:ignore no-dropped-error the registry root is throwaway measurement state; a leaked temp dir is not worth failing a report over
		os.RemoveAll(root)
	}()

	reg := telemetry.NewRegistry()
	r, err := registry.Open(registry.Config{
		Root:      root,
		Sync:      policy,
		Telemetry: reg,
	})
	if err != nil {
		return nil, fmt.Errorf("opening registry: %w", err)
	}
	opts.Logf("perf: listing %d tenant market(s) (rows=%d grid=%d samples=%d)...",
		opts.Markets, opts.Rows, opts.Grid, opts.Samples)
	ids := make([]string, opts.Markets)
	for i := range ids {
		ids[i] = fmt.Sprintf("market-%02d", i+1)
		// Each market gets its own derived seed, so the per-market curves
		// differ.
		if _, err := r.List(registry.Spec{
			ID:        ids[i],
			Generator: "CASP",
			Rows:      opts.Rows,
			Grid:      opts.Grid,
			Samples:   opts.Samples,
			Seed:      opts.Seed + int64(i)*101,
		}, nil); err != nil {
			closeRegistry(r, opts.Logf)
			return nil, fmt.Errorf("listing market %s: %w", ids[i], err)
		}
	}

	// Full serving stack on a loopback listener: middleware + telemetry,
	// no rate limiter — the harness measures the buy path, not a throttle.
	quiet := func(string, ...any) {}
	handler := server.WithMiddleware(
		server.NewMulti(r, server.WithLogger(quiet), server.WithTelemetry(reg)), quiet, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeRegistry(r, opts.Logf)
		return nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	cfg := loadgen.Config{
		Concurrency: opts.Concurrency,
		Duration:    opts.Duration,
		Count:       opts.Count,
		Seed:        opts.Seed,
		Rate:        0, // uncorked: measure the serving stack, not the pacer
		Markets:     ids,
	}
	client := &server.Client{
		BaseURL: "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: opts.Concurrency},
		},
	}
	opts.Logf("perf: driving load (markets=%d c=%d duration=%v count=%d seed=%d)...",
		opts.Markets, cfg.Concurrency, cfg.Duration, cfg.Count, cfg.Seed)
	rep, runErr := loadgen.Run(ctx, client, cfg)

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		opts.Logf("perf: harness server shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		opts.Logf("perf: harness server: %v", err)
	}
	closeRegistry(r, opts.Logf)
	if runErr != nil {
		return nil, runErr
	}
	if rep.Errors > 0 {
		// Failed requests would poison the latency distribution; the
		// harness generates only satisfiable purchases, so any error is a
		// harness bug, not a perf signal.
		return nil, fmt.Errorf("load run hit %d errors (%d non-2xx) out of %d requests; refusing to record a poisoned trajectory point",
			rep.Errors, rep.NonOK, rep.Requests)
	}

	res := LoadResultFrom(rep, cfg)
	res.Offerings = opts.Markets // one offering per market
	res.JournalSync = policy.String()
	h := reg.Histogram("nimbus_http_request_seconds", nil, "route", "POST /api/v1/datasets/{id}/buy")
	qs := h.Quantiles(0.50, 0.95, 0.99)
	res.Server = &LatencySummary{P50: qs[0], P95: qs[1], P99: qs[2]}
	return &res, nil
}

// closeRegistry drains and closes the harness registry; failures are
// logged only — the measurement is already taken and the journals are
// throwaway.
func closeRegistry(r *registry.Registry, logf func(string, ...any)) {
	if err := r.Close(); err != nil {
		logf("perf: closing registry: %v", err)
	}
}

// RunOptions configures a full trajectory recording.
type RunOptions struct {
	Load LoadOptions
	// Markets, when > 1, records a second load pass spread across that many
	// registry tenant markets (the same Load profile otherwise), stored as
	// the report's multi_load section.
	Markets int
	// Micro configures the kernel sweep.
	Micro MicroOptions
	// MicroRunner overrides how the kernel sweep is executed; nil means
	// RunMicro in this process. cmd/nimbus-bench points it at a fresh
	// child process: an in-process sweep runs after the load phases, and
	// the allocator state they leave behind (span fragmentation, grown
	// heap) inflates the alloc-heavy kernels by >10% on a small box.
	MicroRunner func(MicroOptions) ([]MicroResult, error)
	// Bench is the trajectory point number stamped on the report (the n
	// in BENCH_<n>.json); 0 for ad-hoc runs.
	Bench int
	// GeneratedBy records provenance, e.g. "nimbus-bench -perf run".
	GeneratedBy string
}

// Run records one full trajectory point: environment fingerprint, the
// in-process load measurement, and the kernel sweep.
func Run(ctx context.Context, opts RunOptions) (*Report, error) {
	r := &Report{
		SchemaVersion: SchemaVersion,
		Bench:         opts.Bench,
		GeneratedBy:   opts.GeneratedBy,
		Env:           CaptureEnv(),
	}
	load, err := RunLoad(ctx, opts.Load)
	if err != nil {
		return nil, fmt.Errorf("load harness: %w", err)
	}
	r.Load = load
	if opts.Markets > 1 {
		mopts := opts.Load
		mopts.Markets = opts.Markets
		multi, err := RunLoad(ctx, mopts)
		if err != nil {
			return nil, fmt.Errorf("multi-market load harness: %w", err)
		}
		r.MultiLoad = multi
	}
	if opts.Load.Logf != nil {
		opts.Load.Logf("perf: load done (%d requests, %.0f qps); running %d kernel benches...",
			load.Requests, load.QPS, len(Microbenches()))
	}
	runMicro := opts.MicroRunner
	if runMicro == nil {
		runMicro = RunMicro
	}
	micro, err := runMicro(opts.Micro)
	if err != nil {
		return nil, fmt.Errorf("microbenches: %w", err)
	}
	r.Micro = micro
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("harness produced an invalid report: %w", err)
	}
	return r, nil
}
